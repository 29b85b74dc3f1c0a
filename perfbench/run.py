#!/usr/bin/env python3
"""camdrive benchmark: seeded closed-loop CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
One client sends generated configs to `camdrive.cli.main` in a closed loop
(the next op starts when the previous one ended), single process, with
`design_space.workers: 1`. Workloads (see workloads.py):

- sweep:   `pareto` at resolution 48/64/80, then the merged front's hypervolume
- contour: `contour` at resolution 96
- designs: `profile`, `metrics` and `sensitivity` of one drawn mechanism
- all:     the three above in turn; the last line then maps workload to result

Every op's outputs are checked; an op fails if it raises, prints a traceback,
exits with another code than expected, writes a non-finite number or fails
its workload's check. At the end the first op is rerun and the SHA-256 of
every CSV and JSON file must match. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Op times are CPU seconds (user + system) of this process: an op runs in this
one thread, so that is its wall time without the time a shared host does not
run the machine at all, which swings by tens of percent. The wall-clock
median is printed for reference. `--trace 0` reports the end-to-end metrics. `--trace 1` runs every drawn
config twice, untraced and traced in alternating order, and reports the
per-layer metrics of layers.json, including `trace.overhead_s` (traced
minus untraced op_p50_s). Spans are written to `.perfbench/traces/`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]

SETUP_SPAWNS = 9
TAIL_BEYOND = 10
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "points_per_s": "1/s", "peak_rss_mb": "MB"}

# Child of a set-up measurement: import the CLI and build its parser.
SETUP_CHILD = """\
import contextlib, io, time
t0 = time.process_time()
import camdrive.cli
with contextlib.redirect_stdout(io.StringIO()):
    camdrive.cli.main(["--help"])
print(repr(time.process_time() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "contour", "designs", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest grids, for the smoke test")
    return ap.parse_args(argv)


def setup_times(n):
    """Seconds from `import camdrive.cli` to a built parser, in fresh processes."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(n + 1):  # the first spawn may compile bytecode; discard it
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def digests(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(outdir).iterdir()) if p.suffix in (".csv", ".json")}


def tail(times):
    """Time at the highest percentile with TAIL_BEYOND ops beyond it.

    With TAIL_BEYOND ops or fewer no percentile has that many beyond it, and
    the fastest op is reported, so the value moves smoothly as ops get faster.
    """
    xs = sorted(times)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * i / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[i], pct, len(xs) - 1 - i


class Runner:
    def __init__(self, workload, seed, tiny):
        from camdrive import cli, optimize  # after main() put src/ on the path

        self.cli, self.optimize = cli, optimize
        self.wl = workloads.WORKLOADS[workload](tiny)
        self.rng = np.random.default_rng([seed, 0])
        self.check_rng = np.random.default_rng([seed, 1])
        self.dir = WORK / f"run-{workload}-{seed}-{id(self):x}"
        self.opdir = self.dir / "op"
        self.cfg = self.dir / "config.json"
        self.tracer = Tracer()
        self.attempted = self.failed = 0
        self.rel_errs: list[float] = []

    def execute(self, op, traced=False):
        """Run one op; returns (CPU seconds, wall seconds, problems, layers or None)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text(json.dumps(op.config), encoding="utf-8")
        shutil.rmtree(self.opdir, ignore_errors=True)
        gc.collect()
        codes, extra, problems = [], None, []
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
            self.tracer.begin_op(self.attempted)
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for cmd in op.commands:
                    codes.append(self.cli.main([cmd, "--config", str(self.cfg)]))
                if op.expect == 0 and codes == [0] * len(codes):
                    extra = self.wl.finish(op, self.opdir, self.optimize)
        except Exception:
            problems.append(traceback.format_exc())
        seconds, wall = process_time() - c0, perf_counter() - t0
        layers = None
        if traced:
            self.tracer.uninstall()
            layers = self.tracer.end_op()
        if "Traceback" in err.getvalue():
            problems.append("traceback on stderr:\n" + err.getvalue())
        if not problems and codes != [op.expect] * len(op.commands):
            problems.append(f"exit codes {codes}, expected {op.expect}: {err.getvalue()}")
        if not problems and op.expect == 0:
            try:
                self.wl.check(op, self.opdir, extra, self.check_rng, self.rel_errs,
                              problems)
            except Exception:
                problems.append("check failed:\n" + traceback.format_exc())
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {self.attempted - 1} failed: {problems[0][:2000]}", file=sys.stderr)
        return seconds, wall, problems, layers

    def measure(self, seconds, trace):
        """Closed loop over whole cycles until the deadline, then replay the first op."""
        untraced, traced, points, layers, written, walls = [], [], [], [], [], []
        first = first_digests = None
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or i % self.wl.cycle_len or perf_counter() < deadline:
            op = self.wl.draw(self.rng, i, self.opdir)
            order = (False, True) if i % 2 == 0 else (True, False)
            for tr in (order if trace else (False,)):
                dt, wall, problems, lay = self.execute(op, traced=tr)
                (traced if tr else untraced).append(dt)
                if not tr:
                    walls.append(wall)
                if tr:
                    layers.append(lay)
                    written.append(sum(p.stat().st_size for p in self.opdir.iterdir())
                                   if self.opdir.is_dir() else 0)
                if first is None and op.expect == 0 and not problems:
                    first, first_digests = op, digests(self.opdir)
            points.append(op.points)
            i += 1
        replay_ok = True
        if first is not None:
            _, _, problems, _ = self.execute(first)
            replay_ok = not problems and digests(self.opdir) == first_digests
            if not replay_ok and not problems:
                self.failed += 1
                print("replay: output digests differ from the first run", file=sys.stderr)
        return untraced, traced, points, layers, written, walls, replay_ok


def layer_metrics(layers, written, untraced, traced, rel_errs):
    def per_op(span, key):
        return statistics.median(lay.get(span, {}).get(key, 0) for lay in layers)

    def total(span, key):
        return sum(lay.get(span, {}).get(key, 0) for lay in layers)

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "optimize.feasible_ratio": lambda: ratio(total("optimize.sweep", "feasible"),
                                                 total("optimize.sweep", "evaluated")),
        "optimize.nondominated_mask.keep_ratio": lambda: ratio(
            total("optimize.nondominated_mask", "kept"),
            total("optimize.nondominated_mask", "rows_in")),
        "cli.bytes_written": lambda: statistics.median(written),
        "trace.overhead_s": lambda: statistics.median(traced) - statistics.median(untraced),
        "max_rel_err": lambda: max(rel_errs, default=0.0),
    }
    out = {}
    for spec in LAYERS:
        name = spec["name"]
        if name in special:
            value = special[name]()
        else:
            span, _, key = name.rpartition(".")
            value = per_op(span, key)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def run_workload(args, workload):
    runner = Runner(workload, args.seed, args.tiny)
    setup = [] if args.trace else setup_times(SETUP_SPAWNS)
    try:
        untraced, traced, points, layers, written, walls, replay_ok = runner.measure(
            args.seconds, args.trace)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    n = len(untraced)
    fail_frac = runner.failed / runner.attempted
    max_rel_err = max(runner.rel_errs, default=0.0)
    t_tail, pct, beyond = tail(untraced)
    print(f"[{workload}] seed {args.seed}: {n} ops, {runner.attempted} attempted, "
          f"{runner.failed} failed, replay {'ok' if replay_ok else 'MISMATCH'}")
    print(f"[{workload}] fail_frac    {fail_frac:.6g} ratio")
    print(f"[{workload}] max_rel_err  {max_rel_err:.6g} ratio "
          f"({len(runner.rel_errs)} reference comparisons)")
    print(f"[{workload}] wall-clock op p50 {statistics.median(walls):.6g} s "
          f"(op times below are CPU time of this process)")
    if args.trace:
        metrics = layer_metrics(layers, written, untraced, traced, runner.rel_errs)
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        runner.tracer.dump(WORK / "traces" / f"{workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": t_tail,
            "points_per_s": sum(points) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        print(f"[{workload}] op_tail_s is p{pct:.1f} of {n} ops ({beyond} beyond); "
              f"setup_s is the median of {len(setup)} spawns")
    for name, m in metrics.items():
        print(f"[{workload}] {name:<40} {m['value']:.6g} {m['unit']}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "camdrive" / "cli.py").is_file():
        print(f"camdrive sources not found under {SRC}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = {w: run_workload(args, w) for w in ("sweep", "contour", "designs")}
    else:
        result = run_workload(args, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
