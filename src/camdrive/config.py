"""Run configuration: one JSON file drives every CLI command.

Parsing is strict: unknown keys anywhere in the file are rejected so a typo
cannot silently fall back to a default. Command-line flags override file
values. The resolved configuration carries a content hash so output metadata
pins the exact inputs of a run.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .geometry import MIN_PROFILE_RESOLUTION, TransmissionSpec
from .mechanics import LoadCase, Material, builtin_materials, find_material, load_materials
from .optimize import MIN_GRID_RESOLUTION, DesignSpace
from .sensitivity import MIN_PROFILE_SAMPLES, MIN_RMS_NODES

FORMATS = ("csv", "json", "svg")

# Memory limit of a study's grid. A sweep holds the metrics of its (d_cs, r)
# pairs and the rows of its fronts, not its (d_cs, r, L, m) candidates: at
# this many candidates (resolution 256 with four cam counts) it peaked at
# 127 MB, and 64 bytes per candidate only once `SweepResult.grids` is read.
# A contour slice holds about 300 bytes per (d_cs, r) cell, a profile or a
# sensitivity study about 340 bytes per sample and 150 per rms node
# (measured peak RSS of the CLI, numpy 2.4 on Python 3.11), so a fifth as
# many cells, samples or nodes take at most about 4.5 GB.
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

    def catalog(self) -> tuple[Material, ...]:
        if self.materials.catalog_file:
            return load_materials(self.materials.catalog_file)
        return builtin_materials()

    def material_pair(self) -> tuple[Material, Material]:
        catalog = self.catalog()
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
            S_cap=sc.s_cap_mm, workers=sc.workers,
        )

    # --- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        def section(obj):
            out = {}
            for f in fields(obj):
                v = getattr(obj, f.name)
                out[f.name] = list(v) if isinstance(v, tuple) else v
            return out

        return {
            "mechanism": section(self.mechanism),
            "load": section(self.load),
            "materials": section(self.materials),
            "profile": section(self.profile),
            "sensitivity": section(self.sensitivity),
            "design_space": section(self.design_space),
            "contour": section(self.contour),
            "output": section(self.output),
            "seed": self.seed,
        }

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

    JSON lists become tuples; bools are not numbers, and an integer field
    takes an integral float as its int.
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


def _check_finite(value, where: str = "") -> None:
    """Reject NaN and infinities, which JSON parsing lets through, at any depth."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where or 'config value'} must be a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_finite(data)
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _parse_section(name, cls, data[name])
    if "seed" in data:
        kwargs["seed"] = _typed(data["seed"], int | None, "seed")
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _validate(cfg: RunConfig) -> None:
    out = cfg.output
    bad = [f for f in out.formats if f not in FORMATS and f != "all"]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: {FORMATS} or 'all'")
    sc = cfg.design_space
    for label, pair in (("d_cs_mm", sc.d_cs_mm), ("r_mm", sc.r_mm)):
        if pair[0] > pair[1]:
            raise ConfigError(f"design_space.{label} must be [low, high], got {pair}")
    if sc.d_cs_mm[0] < 0.0:
        raise ConfigError("design_space.d_cs_mm lower bound must not be negative")
    if sc.r_mm[0] <= 0.0:
        raise ConfigError("design_space.r_mm lower bound must be positive")
    if sc.L_mm[0] <= 0.0:
        raise ConfigError("design_space.L_mm lower bound must be positive")
    if cfg.contour.m < 2:
        raise ConfigError(f"contour.m must be at least 2, got {cfg.contour.m}")
    for label, value, least in (
        ("profile.resolution", cfg.profile.resolution, MIN_PROFILE_RESOLUTION),
        ("design_space.resolution", sc.resolution, MIN_GRID_RESOLUTION),
        ("contour.resolution", cfg.contour.resolution, MIN_GRID_RESOLUTION),
        ("sensitivity.samples", cfg.sensitivity.samples, MIN_PROFILE_SAMPLES),
        ("sensitivity.rms_nodes", cfg.sensitivity.rms_nodes, MIN_RMS_NODES),
    ):
        if value < least:
            raise ConfigError(f"{label} must be at least {least}, got {value}")
    for label, res, size, limit in (
        ("design_space.resolution", sc.resolution, len(sc.m) * sc.resolution ** 3,
         MAX_GRID_CANDIDATES),
        ("contour.resolution", cfg.contour.resolution, cfg.contour.resolution ** 2,
         MAX_GRID_CANDIDATES // 5),
        ("profile.resolution", cfg.profile.resolution, cfg.profile.resolution,
         MAX_GRID_CANDIDATES // 5),
        ("sensitivity.samples", cfg.sensitivity.samples, cfg.sensitivity.samples,
         MAX_GRID_CANDIDATES // 5),
        ("sensitivity.rms_nodes", cfg.sensitivity.rms_nodes, cfg.sensitivity.rms_nodes,
         MAX_GRID_CANDIDATES // 5),
    ):
        if size > limit:
            raise ConfigError(f"{label} {res} makes a grid of {size} points, "
                              f"above the memory limit of {limit}")


def apply_overrides(cfg: RunConfig, command: str, *, out=None, resolution=None,
                    fmt=None, mat=None, seed=None) -> RunConfig:
    """Apply CLI flag overrides on top of the file configuration."""
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
        if resolution < 1:
            raise ConfigError(f"resolution must be positive, got {resolution}")
        if command == "profile":
            cfg = replace(cfg, profile=replace(cfg.profile, resolution=resolution))
        elif command == "sensitivity":
            cfg = replace(cfg, sensitivity=replace(cfg.sensitivity, samples=resolution))
        elif command == "pareto":
            cfg = replace(cfg, design_space=replace(cfg.design_space,
                                                    resolution=resolution))
        elif command == "contour":
            cfg = replace(cfg, contour=replace(cfg.contour, resolution=resolution))
    _validate(cfg)
    return cfg
