"""Byte identity of every output file, pinned.

`scripts/output_digests.py` runs the five commands and lists the SHA-256 of
each file they write, then the SHA-256 of that listing. This test runs it in
a fresh working directory with `m32.json`; the script always runs the
default config first, so the one listing hash covers both. `m32.json` takes
the other branch of each output where the default takes one: a two-count
design space, a three-cam contour locus with the swapped dash styles, the
torque sensitivity series and a high-speed load. A change that moves any
output byte on purpose updates the pin and records old and new values.
"""
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"

# numpy's sin and arctan can differ by an ulp on another build or CPU, which
# moves the pin
PINNED_ON = "numpy 2.4.6 on Linux x86_64"
PIN = "6b794b495bdd0753689de14bd3133b9664361f661fe70a2438d57ffa99647e52"


def test_listing_matches_the_pin(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m32.json").write_text(json.dumps({
        "design_space": {"m": [3, 2], "resolution": 80},
        "contour": {"m": 3, "dashed_pressure": False},
        "sensitivity": {"include_torque": True},
        "load": {"speed_rpm": 100.0}}))
    module.run(["m32.json"])
    listing = capsys.readouterr().out
    here = f"numpy {np.__version__} on {platform.system()} {platform.machine()}"
    assert listing.splitlines()[-1] == f"listing sha256 {PIN}", (
        f"output bytes moved; the pin was taken with {PINNED_ON}, this run used "
        f"{here}. Listing:\n{listing}")
