#!/usr/bin/env python3
"""Benchmark haptosim on its three solve paths.

Run from the repository root:

    python3 perfbench/run.py --workload peaks2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
medians over traced rounds.  See README.md in this directory for the workloads, the
metrics and the checks.
"""

import os

# One BLAS thread, set before NumPy loads: with two, the scheduler's
# placement of the second thread shows up in the wall times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("peaks2d", "invasion3d", "order_study")
# Untimed set-ups at the start of a run: the first few in a process are up
# to twice as slow while caches and the heap fill.
WARMUP_SETUPS = 3
# Set-ups timed before each round, at least this many and for at least
# this long, so that even a one-round run reports set-up time as a median
# over several.
EXTRA_SETUPS = 3
EXTRA_SETUP_S = 0.2
CHILD_TIMEOUT_S = 175


def _median(values):
    return float(statistics.median(values))


def measure(name: str, seconds: float, trace: bool) -> dict:
    """Run whole rounds of one workload for about ``seconds`` and report."""
    import checks
    import tracing
    import workloads
    from hostspeed import HostSpeed, clock

    text, initial, round_fn = workloads.WORKLOADS[name]
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)

    # Untraced runs sample the host's speed throughout; traced runs do not,
    # so that the samples stay out of the spans.
    host = contextlib.nullcontext() if trace else HostSpeed()
    setups = []
    plain, traced, tracers = [], [], []
    with host:
        start = perf_counter()
        for _ in range(WARMUP_SETUPS):
            workloads.setup(text, initial)
        while True:
            t0 = perf_counter()
            n = 0
            while n < EXTRA_SETUPS or perf_counter() - t0 < EXTRA_SETUP_S:
                t1 = clock()
                workloads.setup(text, initial)
                setups.append(clock() - t1)
                n += 1
            plain.append(round_fn(out))
            if trace:
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced.append(round_fn(out))
                tracers.append(tracer)
            cycle = perf_counter() - t0
            if perf_counter() - start + cycle > seconds:
                break

    rounds = plain + traced
    failures = [f for r in rounds for f in r.failures]
    errors = [e for r in rounds for e in r.errors]
    ok = [r for r in rounds if not r.failed]
    if len({tuple(r.sweeps_per_step) for r in ok}) > 1:
        failures.append("sweep counts differ between rounds")

    if not trace:
        # Medians over every round of the run, scaled to the reference host
        # speed: other load on the host slows single rounds by up to 1.5x,
        # in phases longer than a run; see README.md.
        timed = [r for r in plain if not r.failed] or plain
        scale = host.scale()
        print(f"{name}: host speed {scale:.4f} of the reference, from "
              f"{len(host.samples)} samples; unscaled wall_s "
              f"{_median([r.wall_s for r in timed]):.6g} s")
        metrics = {
            "wall_s": (scale * _median([r.wall_s for r in timed]), "s"),
            "setup_s": (scale * _median(setups + [s for r in plain for s in r.setup_s]), "s"),
            "step_s_p50": (scale * _median([s for r in timed for s in r.step_s]), "s"),
            "sweeps": (ok[0].sweeps if ok else 0, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = []
        for rnd, base, tracer in zip(traced, plain, tracers):
            if rnd.failed or base.failed:
                continue
            layer = tracing.layer_metrics(tracer.spans, rnd.sweeps_per_step, rnd.vtk_bytes)
            layers.append(layer)
            failures += checks.check_trace_consistency(name, layer, rnd.members)
            if not all((a == b).all() for a, b in zip(rnd.finals, base.finals)):
                failures.append("traced round committed other fields than the untraced one")
        # median_low keeps a count a whole number.
        metrics = {
            key: (statistics.median_low([layer[key] for layer in layers]), tracing.unit(key))
            for key in (layers[0] if layers else {})
        }
        metrics["trace.overhead_s"] = (
            _median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain]), "s"
        )
        spans = [s.as_dict() for tracer in tracers for s in tracer.spans]
        (out / "spans.json").write_text(json.dumps(spans))

    for line in errors:
        print(f"{name}: operation failed: {line}")
    for line in failures:
        print(f"{name}: CHECK FAILED: {line}")
    print(f"{name}: {len(plain)} untraced and {len(traced)} traced rounds")
    print(f"{name}: untraced round wall_s: {[round(r.wall_s, 4) for r in plain]}")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in a process of its own."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the harness; the workloads use no random input")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced rounds")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    if not (SRC / "haptosim" / "__init__.py").is_file():
        print(f"error: no haptosim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
