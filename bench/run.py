#!/usr/bin/env python3
"""Benchmark of the duopoly laboratory.

    python3 bench/run.py --workload mc_abstain --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload (see workloads.py) until the next round
would end after --seconds, and at least one round.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_s (median time of one
round's program calls), setup_s (median over fresh interpreters of the time
to import the program and construct the workload's objects) and
peak_rss_mib (peak resident memory once the rounds are done, before the
checks import scipy).

--trace 1 runs every round twice, untraced and then traced on the same
inputs, requires the two to produce identical outputs, and reports the
per-layer metrics of spans.LAYER_METRICS, trace.overhead (median traced over
median untraced round time) and, on mc_abstain, mc_mse_time.

Every run also writes its rounds, checks and span totals to
bench/out/<workload>-seed<seed>-trace<0|1>.json.  The program is imported
from src/ of the checkout that holds this file; without it the run exits 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 25

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def import_program():
    """Put src/ and the benchmark first on sys.path and import the program
    from there, never from an installed copy."""
    pkg = SRC / "duopoly_invest"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"run.py: program source not found at {pkg}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import duopoly_invest

    if Path(duopoly_invest.__file__).resolve().parent != pkg:
        sys.exit(f"run.py: duopoly_invest imported from {duopoly_invest.__file__}, not {pkg}")


def setup_probe(name: str):
    """Child process: time the import and the workload's construction."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[name](seed=0)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", name],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    setup_s = None if trace else measure_setup(name)
    w = workloads.WORKLOADS[name](seed)
    tracer = spans.Tracer(spans.HOOKS) if trace else None
    untraced, traced, mismatches = [], [], []
    first = None
    start = time.perf_counter()
    k = 0
    while True:
        t_round = time.perf_counter()
        plain = w.run_round(k, check=True)
        untraced.append(plain)
        if trace:
            tracer.install(callers=(workloads,))
            try:
                r = w.run_round(k, check=False)
            finally:
                tracer.uninstall()
            traced.append(r)
            if first is None:
                first = spans.round_counts(tracer)
            if r.digest != plain.digest:
                mismatches.append(k)
        k += 1
        now = time.perf_counter()
        if (now - start) + (now - t_round) > seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = w.finish()
    if mismatches:
        checks.problems.append(f"traced outputs differ from untraced ones in rounds {mismatches}")

    wall = statistics.median(r.wall for r in untraced)
    if trace:
        values = spans.layer_metrics(tracer, first, len(traced))
        values["trace.overhead"] = statistics.median(r.wall for r in traced) / wall
        values["mc_mse_time"] = w.mse_time(wall) if hasattr(w, "mse_time") else 0.0
        metrics = {n: {"value": values[n], "unit": u} for n, u in spans.LAYER_METRICS}
    else:
        values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mib": peak_mib}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    rounds = untraced + traced
    result = {"correct": not checks.problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "rounds": [{"wall_s": r.wall, "digest": r.digest} for r in untraced],
              "traced_rounds": [{"wall_s": r.wall, "digest": r.digest} for r in traced],
              "problems": checks.problems, "summary": getattr(w, "summary", {}),
              "spans": tracer.summary() if trace else None, "result": result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for p in checks.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
