"""Byte identity of every output file, pinned.

`scripts/output_digests.py` runs the five commands and lists the SHA-256 of
each file they write, then the SHA-256 of that listing. This test runs it in
a fresh working directory with `m32.json`, a two-count design space; the
script always runs the default config first, so the one listing hash covers
both. A change that moves any output byte on purpose updates the pin and
records old and new values.
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
PIN = "8cc7165f2073901046f1c8689e63fc9f97da2caa1ef38da8ee88606bbbbf1118"


def test_listing_matches_the_pin(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m32.json").write_text(
        json.dumps({"design_space": {"m": [3, 2], "resolution": 80}}))
    module.run(["m32.json"])
    listing = capsys.readouterr().out
    here = f"numpy {np.__version__} on {platform.system()} {platform.machine()}"
    assert listing.splitlines()[-1] == f"listing sha256 {PIN}", (
        f"output bytes moved; the pin was taken with {PINNED_ON}, this run used "
        f"{here}. Listing:\n{listing}")
