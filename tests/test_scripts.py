"""Smoke tests of the scripts under `scripts/`: each runs as its own process.

`root_evidence.py` is left out: it takes about 20 s.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STUDY_TREE = {
    "profile": {"profile.csv", "profile.json", "profile.svg"},
    "metrics": {"metrics.csv", "metrics.json"},
    "sensitivity": {"sensitivity.json", "sensitivity.svg", "sensitivity_profile.csv",
                    "sensitivity_tables.csv"},
    "pareto": {"pareto.json", "pareto_3d.svg", "pareto_front.csv", "pareto_front_m2.csv",
               "pareto_front_m3.csv", "pareto_mu_sm.svg", "pareto_p_mu.svg",
               "pareto_p_sm.svg"},
    "contour_m2": {"contour.json", "contour.svg", "contour_grid.csv", "contour_locus.csv"},
    "contour_m3": {"contour.json", "contour.svg", "contour_grid.csv", "contour_locus.csv"},
}


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_reproduce_study_writes_the_study_tree(tmp_path):
    out = tmp_path / "study"
    proc = run_script("reproduce_study.py", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert {d.name: {f.name for f in d.iterdir()} for d in out.iterdir()} == STUDY_TREE
    assert all(f.stat().st_size > 0 for f in out.glob("*/*"))
    assert "sweep: 524288 candidates" in proc.stdout


def test_crossover_scan_prints_the_envelope_table(tmp_path):
    proc = run_script("crossover_scan.py", 16, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("resolution 16: m=2: ") and "m=3: " in lines[0]
    assert lines[1].split() == ["mu_max[deg]", "P(m=2)[MPa]", "P(m=3)[MPa]", "gap"]
    assert len(lines) == 2 + 41 + 1  # mu_max from 10 to 30 deg in 0.5 deg steps
    assert lines[-1].startswith(("three-cam envelope never loses",
                                 "two-cam envelope takes over"))
    assert list(tmp_path.iterdir()) == []


def test_output_digests_repeat(tmp_path):
    small = {"profile": {"resolution": 64},
             "sensitivity": {"samples": 64, "include_torque": True, "rms_nodes": 1026},
             "design_space": {"resolution": 16}, "contour": {"resolution": 16}}
    configs = {"small": small, "singular": {**small, "mechanism": {"eta": 0.1}}}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    runs = [run_script("output_digests.py", "small.json", "singular.json", cwd=tmp_path)
            for _ in range(2)]
    assert all(proc.returncode == 0 and proc.stderr == "" for proc in runs)
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    commands = ("profile", "metrics", "sensitivity", "pareto", "contour")
    assert lines[:5] == [f"default {c}: exit 0" for c in commands]
    assert lines[5:10] == [f"1-small {c}: exit 0" for c in commands]
    reason = "eta is at or below the singular value 1/(2*pi) ~= 0.15915"
    assert lines[10:15] == [f"2-singular profile: exit 2 infeasible mechanism: {reason}",
                            f"2-singular metrics: exit 2 infeasible mechanism: {reason}",
                            f"2-singular sensitivity: exit 2 infeasible nominal design: "
                            f"{reason}",
                            "2-singular pareto: exit 0", "2-singular contour: exit 0"]
    # the last line is the SHA-256 of the listing above it
    listing = "".join(f"{line}\n" for line in lines[:-1]).encode()
    assert lines[-1] == f"listing sha256 {hashlib.sha256(listing).hexdigest()}"
    digests = [line.split("  ") for line in lines[15:-1]]
    # 21 files per feasible config; the singular mechanism writes only the two sweeps'
    assert len(digests) == 21 + 21 + 12
    assert all(len(h) == 64 and (tmp_path / "out" / "digests" / rel).is_file()
               for h, rel in digests)
