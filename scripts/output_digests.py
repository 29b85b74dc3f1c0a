#!/usr/bin/env python3
"""Print the SHA-256 of every file the five commands write.

Runs profile, metrics, sensitivity, pareto and contour on the default
configuration and on each config file given, each command into
out/digests/<config>/<command> under the working directory, where <config>
is `default` or `<i>-<file stem>` for the i-th file. For each run it prints
the exit code and the stderr line, then `sha256  relpath` for every file
under the root, and last `listing sha256 <hex>`, the SHA-256 of every
line above it (each with its newline). The root is fixed, and emptied
first, because every JSON file echoes its output directory: trees written
to different directories never have equal digests. To compare two
checkouts, run this script from the same working directory with each
checkout's src on PYTHONPATH and compare the last lines, or diff the two
listings.

Usage: python scripts/output_digests.py [config.json ...]
"""
import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

from camdrive.cli import main

ROOT = Path("out/digests")
COMMANDS = ("profile", "metrics", "sensitivity", "pareto", "contour")


def run(configs) -> None:
    shutil.rmtree(ROOT, ignore_errors=True)
    named = [("default", [])] + [(f"{i}-{Path(c).stem}", ["--config", str(c)])
                                 for i, c in enumerate(configs, 1)]
    lines = []
    for name, extra in named:
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--out", str(ROOT / name / command), *extra])
            lines.append(f"{name} {command}: exit {code} {err.getvalue().strip()}".rstrip())
    for path in sorted(p for p in ROOT.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                     f"{path.relative_to(ROOT)}")
    listing = "".join(f"{line}\n" for line in lines)
    print(listing, end="")
    print(f"listing sha256 {hashlib.sha256(listing.encode()).hexdigest()}")


if __name__ == "__main__":
    run(sys.argv[1:])
