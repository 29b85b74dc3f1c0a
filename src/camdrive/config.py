"""Run configuration: one JSON file drives every CLI command.

Parsing is strict: unknown keys anywhere in the file are rejected so a typo
cannot silently fall back to a default. Command-line flags override file
values. The resolved configuration carries a content hash so output metadata
pins the exact inputs of a run.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, ModelError
from .geometry import (
    MAX_CAM_COUNT,
    MAX_LENGTH,
    MIN_LENGTH,
    MIN_PROFILE_RESOLUTION,
    TransmissionSpec,
)
from .mechanics import LoadCase, Material, builtin_materials, find_material, load_materials
from .optimize import MIN_GRID_RESOLUTION, DesignSpace
from .sensitivity import MIN_PROFILE_SAMPLES, MIN_RMS_NODES

FORMATS = ("csv", "json", "svg")

# Most (d_cs, r, L, m) candidates of a sweep. A sweep holds the metrics of
# its (d_cs, r) pairs and its fronts, not its candidates (64 bytes each once
# `SweepResult.grids` is read, which evaluates every solvable pair again), so
# this bounds its run time and front size, not its memory: four times this
# many (resolution 512, m = [2, 3]) took 0.2-0.35 s and 89 MB in `sweep`. A
# contour slice holds about 300 bytes per (d_cs, r) cell, a profile or a
# sensitivity study about 340 bytes per sample and 150 per rms node (measured
# peak RSS of the CLI, numpy 2.4 on Python 3.11), so their memory limit, a
# fifth as many cells, samples or nodes, takes at most about 4.5 GB.
MAX_GRID_CANDIDATES = 2 ** 26


@dataclass(frozen=True)
class MechanismConfig:
    pitch_mm: float = 50.0
    eta: float = 0.18
    roller_radius_mm: float = 4.0
    contact_width_mm: float = 10.0
    cam_count: int = 2


@dataclass(frozen=True)
class LoadConfig:
    torque_nmm: float = 1200.0
    speed_rpm: float | None = None


@dataclass(frozen=True)
class MaterialsConfig:
    cam: str = "improved steel"
    roller: str = "improved steel"
    catalog_file: str | None = None


@dataclass(frozen=True)
class ProfileConfig:
    resolution: int = 2048


@dataclass(frozen=True)
class SensitivityConfig:
    samples: int = 256
    rms_nodes: int = 1025
    include_torque: bool = False


@dataclass(frozen=True)
class SpaceConfig:
    d_cs_mm: tuple[float, float] = (0.0, 30.0)
    r_mm: tuple[float, float] = (4.0, 10.5)
    L_mm: tuple[float, float | None] = (1.0, None)
    m: tuple[int, ...] = (2, 3)
    resolution: int = 64
    pitch_mm: float = 20.0
    mu_cap_deg: float = 30.0
    p_cap_mpa: float = 800.0
    s_cap_mm: float = 90.0
    workers: int = 1


@dataclass(frozen=True)
class ContourConfig:
    m: int = 2
    s_m_mm: float = 60.0
    resolution: int = 64
    mu_levels_deg: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    p_levels_mpa: tuple[float, ...] = (500.0, 550.0, 600.0, 650.0, 700.0, 750.0, 800.0)
    dashed_pressure: bool = True


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = FORMATS


@dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismConfig = MechanismConfig()
    load: LoadConfig = LoadConfig()
    materials: MaterialsConfig = MaterialsConfig()
    profile: ProfileConfig = ProfileConfig()
    sensitivity: SensitivityConfig = SensitivityConfig()
    design_space: SpaceConfig = SpaceConfig()
    contour: ContourConfig = ContourConfig()
    output: OutputConfig = OutputConfig()
    seed: int | None = None

    # --- model objects -----------------------------------------------------

    def spec(self) -> TransmissionSpec:
        mech = self.mechanism
        return TransmissionSpec(p=mech.pitch_mm, eta=mech.eta, r=mech.roller_radius_mm,
                                m=mech.cam_count, L=mech.contact_width_mm)

    def load_case(self) -> LoadCase:
        return LoadCase(torque=self.load.torque_nmm, speed_rpm=self.load.speed_rpm)

    @cached_property
    def catalog(self) -> tuple[Material, ...]:
        """The material catalog; a run reads its file once, when its config is checked."""
        if self.materials.catalog_file:
            return load_materials(self.materials.catalog_file)
        return builtin_materials()

    def material_pair(self) -> tuple[Material, Material]:
        catalog = self.catalog
        return (find_material(self.materials.cam, catalog),
                find_material(self.materials.roller, catalog))

    def space(self) -> DesignSpace:
        sc = self.design_space
        cam, roller = self.material_pair()
        return DesignSpace(
            d_cs_range=sc.d_cs_mm, r_range=sc.r_mm, L_range=sc.L_mm,
            m_values=sc.m, resolution=sc.resolution, pitch=sc.pitch_mm,
            load=self.load_case(),
            cam_material=cam, roller_material=roller,
            mu_cap=math.radians(sc.mu_cap_deg), P_cap=sc.p_cap_mpa,
            S_cap=sc.s_cap_mm,
        )

    # --- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Each section as a dict of its fields, tuples as lists, then the seed."""
        return {**{name: {key: list(v) if isinstance(v, tuple) else v
                          for key, v in vars(getattr(self, name)).items()}
                   for name in _SECTIONS}, "seed": self.seed}

    def content_hash(self) -> str:
        """Hash of the model-relevant sections; where outputs land is excluded."""
        d = self.to_dict()
        d.pop("output", None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()


_SECTIONS = {
    "mechanism": MechanismConfig,
    "load": LoadConfig,
    "materials": MaterialsConfig,
    "profile": ProfileConfig,
    "sensitivity": SensitivityConfig,
    "design_space": SpaceConfig,
    "contour": ContourConfig,
    "output": OutputConfig,
}

# declared field types per section, resolved once
_HINTS = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}

_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string")}


def _typed(value, hint, where: str):
    """value checked against a field's declared type.

    JSON lists become tuples; bools are not numbers, an integer field takes
    an integral float as its int, and a number must be finite as a float
    (JSON parsing lets NaN, infinities and huge integers through).
    """
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values, got {value}")
        return tuple(_typed(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    if type(None) in args:
        if value is None:
            return value
        (hint,) = (t for t in args if t is not type(None))
    kinds, label = _KINDS[hint]
    if hint is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, kinds) or (hint is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where} must be {label}, got {value!r}")
    if hint in (int, float) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value}")
    return value


def _parse_section(name: str, cls, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object")
    hints = _HINTS[name]
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    return cls(**{key: _typed(value, hints[key], f"{name}.{key}")
                  for key, value in raw.items()})


def _parse(data: dict) -> RunConfig:
    """The RunConfig of a JSON object, its keys and types checked but not its ranges."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _parse_section(name, cls, data[name])
    if "seed" in data:
        kwargs["seed"] = _typed(data["seed"], int | None, "seed")
    return RunConfig(**kwargs)


def parse_config(data: dict) -> RunConfig:
    """The RunConfig of a JSON object, every value checked as for any command."""
    return apply_overrides(_parse(data), None)


def load_config(path) -> RunConfig:
    """The RunConfig of a JSON file, its keys and types checked. Its ranges are
    checked by `apply_overrides`, once the flags have replaced what they set."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"config file {p} cannot be read: {exc}") from exc
    return _parse(data)


# Bounds of the numeric fields that no model object built by `_validate`
# checks, as (op, bound) pairs: a value must satisfy every pair. A list field
# has each entry checked and a null is not. `LoadCase` owns the torque and
# speed bounds, `Material` the catalog's, and `DesignSpace` the design space's
# lengths, ranges, resolution floor, cam counts and caps; the pressure-angle
# cap stays here, since the space holds it in radians. Only the commands that
# use the mechanism build it, so its lengths and cam count are checked here
# too. A cam drives at least one degree of the camshaft's turn.
_LENGTH = ((">=", MIN_LENGTH), ("<=", MAX_LENGTH))
_CAM_COUNT = ("<=", MAX_CAM_COUNT)
_SAMPLES = ("memory", MAX_GRID_CANDIDATES // 5)
_RANGES = {
    **dict.fromkeys(("mechanism.pitch_mm", "mechanism.roller_radius_mm",
                     "mechanism.contact_width_mm"), _LENGTH),
    "mechanism.cam_count": ((">=", 1), _CAM_COUNT),
    "profile.resolution": ((">=", MIN_PROFILE_RESOLUTION), _SAMPLES),
    "sensitivity.samples": ((">=", MIN_PROFILE_SAMPLES), _SAMPLES),
    "sensitivity.rms_nodes": ((">=", MIN_RMS_NODES), _SAMPLES),
    "design_space.m": (_CAM_COUNT,),
    "design_space.mu_cap_deg": ((">", 0.0),),
    # one process runs a sweep; kept as perfbench's configs set it and unknown keys fail
    "design_space.workers": ((">=", 1), ("<=", 1)),
    "contour.m": ((">=", 2), _CAM_COUNT),
    # a contour slice holds resolution**2 cells, as many as _SAMPLES allows
    "contour.resolution": ((">=", MIN_GRID_RESOLUTION),
                           ("memory", math.isqrt(MAX_GRID_CANDIDATES // 5))),
}

# the (section, field) that each command's --resolution flag sets
RESOLUTION_FIELDS = {"profile": ("profile", "resolution"),
                     "sensitivity": ("sensitivity", "samples"),
                     "pareto": ("design_space", "resolution"),
                     "contour": ("contour", "resolution")}

_OPS = {">": (operator.gt, "above"), ">=": (operator.ge, "at least"),
        "<=": (operator.le, "at most"), "memory": (operator.le, "at most the memory limit of")}


def _validate(cfg: RunConfig) -> DesignSpace:
    """The design space of cfg, once every value of cfg lies in its range:
    the range table, the grid-size limit, and the model objects it builds,
    whose constructors reject a bad load case, material or design space.
    Raises ConfigError otherwise."""
    for path, bounds in _RANGES.items():
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        for v, (op, bound) in itertools.product(
                value if isinstance(value, tuple) else (value,), bounds):
            if v is not None and not _OPS[op][0](v, bound):
                raise ConfigError(f"{path} must be {_OPS[op][1]} {bound}, got {value}")
    bad = [f for f in cfg.output.formats if f not in FORMATS and f != "all"]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: {FORMATS} or 'all'")
    sc = cfg.design_space
    size = len(sc.m) * sc.resolution ** 3
    if size > MAX_GRID_CANDIDATES:
        raise ConfigError(f"design_space.resolution {sc.resolution} makes a grid of {size} "
                          f"candidates, above the sweep limit of {MAX_GRID_CANDIDATES}")
    try:
        return cfg.space()
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(cfg: RunConfig, command: str | None, *, out=None, resolution=None,
                    fmt=None, mat=None, seed=None) -> RunConfig:
    """Apply CLI flag overrides on top of the file configuration, then check
    every range once, and the contour's size when the command is `contour`.
    A resolution sets the field `RESOLUTION_FIELDS` names for the command;
    a command outside that table takes none."""
    if out is not None:
        cfg = replace(cfg, output=replace(cfg.output, directory=str(out)))
    if fmt is not None:
        formats = FORMATS if fmt == "all" else (fmt,)
        cfg = replace(cfg, output=replace(cfg.output, formats=formats))
    if mat is not None:
        cfg = replace(cfg, materials=replace(cfg.materials, cam=mat, roller=mat))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if resolution is not None:
        if command not in RESOLUTION_FIELDS:
            raise ConfigError(f"command {command} takes no resolution")
        section, key = RESOLUTION_FIELDS[command]
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{key: resolution})})
    cc = cfg.contour
    lo, hi = _validate(cfg).L_bounds(cc.m)
    if command == "contour" and not lo <= cc.s_m_mm / cc.m <= hi:
        raise ConfigError(f"contour.s_m_mm={cc.s_m_mm} gives L={cc.s_m_mm / cc.m} outside "
                          f"the design space's range [{lo}, {hi}] for m={cc.m}")
    return cfg
