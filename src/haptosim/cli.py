"""Command-line orchestration: single runs, parameter sweeps, verification.

Exit codes are a stable contract:
0 success, 2 config error, 3 breakdown, 4 fixed-point nonconvergence,
5 verification failure, 6 linear-solve failure (1 is reserved for
unexpected errors).  A run stopped by nonconvergence or a linear-solve
failure still writes ``diagnostics.csv`` up to its last committed step.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import sys
from pathlib import Path

from . import iocfg, stepper, verify
from .iocfg import ConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_NONCONVERGENCE = 4
EXIT_VERIFY = 5
EXIT_SOLVE = 6

ORDER_STUDY_DTS = (0.1, 0.05, 0.025, 0.0125)
ELEMENT_TOL = 1e-13
ORDER_TOL = 0.1
SCALING_TOL = 1e-7
ODE_SELF_TOL = 1e-12


def _load_config(path, overrides, out_dir=None) -> RunConfig:
    pairs = []
    if path is not None:
        pairs = iocfg.read_pairs(Path(path).read_text(encoding="utf-8"))
    pairs = iocfg.apply_overrides(pairs, overrides or [])
    if out_dir is not None:
        pairs = iocfg.apply_overrides(pairs, [f"out_dir={out_dir}"])
    return iocfg.build_config(pairs)


def _snapshot_name(t) -> str:
    return f"snapshot_t{t:g}.vtk"


def _emit_outputs(config: RunConfig, result: stepper.RunResult) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t, state in result.snapshots:
        iocfg.write_vtk(state, out / _snapshot_name(t))
    iocfg.write_diagnostics_csv(result.diagnostics, out / "diagnostics.csv")
    if result.breakdown is not None:
        iocfg.write_vtk(result.state, out / f"breakdown_t{result.breakdown.time:g}.vtk")


def _emit_early_stop(config: RunConfig, exc) -> int:
    """Write the diagnostics of the steps committed before a failed step;
    return the exit code of the failure."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    iocfg.write_diagnostics_csv(exc.records, out / "diagnostics.csv")
    if isinstance(exc, stepper.NonconvergenceError):
        return EXIT_NONCONVERGENCE
    return EXIT_SOLVE


def _cadence_writer(config: RunConfig):
    """Per-step VTK emission every ``vtk_every`` steps (0 disables it)."""
    if config.vtk_every <= 0:
        return None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def on_step(n, state):
        if n % config.vtk_every == 0:
            iocfg.write_vtk(state, out / f"step_{n:06d}.vtk")

    return on_step


def cmd_run(args) -> int:
    try:
        config = _load_config(args.config, args.set, args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = stepper.run(
            config, backtrack=args.backtrack, on_step=_cadence_writer(config)
        )
    except stepper.NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return _emit_early_stop(config, exc)
    except stepper.StepError as exc:
        print(f"linear-solve failure: {exc}", file=sys.stderr)
        return _emit_early_stop(config, exc)
    _emit_outputs(config, result)
    if result.breakdown is not None:
        b = result.breakdown
        print(
            f"breakdown at t = {b.time:g} (sweep {b.iteration}, field {b.field}): "
            f"{b.reason}",
            file=sys.stderr,
        )
        return EXIT_BREAKDOWN
    print(f"completed {config.n_steps} steps to t = {config.params.t_final:g}; "
          f"outputs in {config.out_dir}")
    return EXIT_OK


def _parse_axes(axis_args):
    axes = []
    for item in axis_args:
        if "=" not in item:
            raise ConfigError(f"axis must look like key=v1,v2,..., got {item!r}")
        key, values = item.split("=", 1)
        values = [v.strip() for v in values.split(",") if v.strip() != ""]
        if not values:
            raise ConfigError(f"axis {key!r} has no values")
        axes.append((key.strip(), values))
    return axes


def _sweep_child(pairs, key_values, out_dir):
    """Run one sweep combination; returns (exit code, summary fields)."""
    overrides = [f"{k}={v}" for k, v in key_values] + [f"out_dir={out_dir}"]
    try:
        config = iocfg.build_config(iocfg.apply_overrides(pairs, overrides))
    except ConfigError as exc:
        return EXIT_CONFIG, {"error": str(exc)}
    try:
        result = stepper.run(config)
    except (stepper.NonconvergenceError, stepper.StepError) as exc:
        return _emit_early_stop(config, exc), {"error": str(exc)}
    _emit_outputs(config, result)
    peaks = {}
    for t in config.snapshots:
        # diagnostics row n belongs to step n, so index by step number
        idx = int(round(t / config.params.dt))
        peaks[t] = (
            result.diagnostics[idx].max_u if idx < len(result.diagnostics) else None
        )
    code = EXIT_BREAKDOWN if result.breakdown is not None else EXIT_OK
    return code, {"peaks": peaks, "breakdown": int(result.breakdown is not None)}


def cmd_sweep(args) -> int:
    try:
        axes = _parse_axes(args.axis)
        pairs = []
        if args.config is not None:
            pairs = iocfg.read_pairs(Path(args.config).read_text(encoding="utf-8"))
        base = iocfg.build_config(
            iocfg.apply_overrides(pairs, [f"out_dir={args.out}"] if args.out else [])
        )
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = Path(args.out) if args.out else Path(base.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    combos = list(itertools.product(*(values for _, values in axes)))
    keys = [key for key, _ in axes]
    jobs = []
    for combo in combos:
        key_values = list(zip(keys, combo))
        subdir = out_root / "_".join(f"{k}-{v}" for k, v in key_values)
        jobs.append((key_values, str(subdir)))

    results = [None] * len(jobs)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                pool.submit(_sweep_child, pairs, kv, sub): i
                for i, (kv, sub) in enumerate(jobs)
            }
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for i, (kv, sub) in enumerate(jobs):
            results[i] = _sweep_child(pairs, kv, sub)

    snapshot_times = base.snapshots
    summary = out_root / "summary.csv"
    with open(summary, "w", encoding="ascii") as fh:
        head = keys + [f"max_u_t{t:g}" for t in snapshot_times] + ["breakdown", "exit"]
        fh.write(",".join(head) + "\n")
        for (key_values, _), (code, info) in zip(jobs, results):
            row = [v for _, v in key_values]
            peaks = info.get("peaks", {})
            for t in snapshot_times:
                value = peaks.get(t)
                row.append("" if value is None else repr(float(value)))
            row.append(str(info.get("breakdown", "")))
            row.append(str(code))
            fh.write(",".join(row) + "\n")

    print(f"swept {len(jobs)} runs; summary in {summary}")
    worst = max((code for code, _ in results), default=EXIT_OK)
    return worst


def cmd_verify(args) -> int:
    failures = 0

    def check(name, value, tol, larger_is_worse=True):
        nonlocal failures
        ok = value <= tol if larger_is_worse else value >= tol
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {value:.3e} (tolerance {tol:.1e}) {status}")
        if not ok:
            failures += 1

    suites = (
        ("element", "ode", "order", "scaling") if args.suite == "all" else (args.suite,)
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if "element" in suites:
        report = verify.element_matrix_crosscheck()
        check("element-integral max deviation", report.worst, ELEMENT_TOL)

    if "ode" in suites:
        from .model import Parameters

        params = Parameters(mu=0.5, epsilon=0.2, chi=0.0)
        drift = verify.oracle_self_consistency(params, (1.0, 1.0, 0.5), 5.0, 2000)
        check("reference-integrator self-consistency", drift, ODE_SELF_TOL)

    if "order" in suites:
        for theta, expected in ((0.5, 2.0), (1.0, 1.0)):
            study = verify.temporal_order_study(theta, ORDER_STUDY_DTS)
            check(
                f"temporal order (theta={theta}) |slope - {expected}|",
                abs(study.estimated_order - expected),
                ORDER_TOL,
            )
            if out_dir:
                verify.write_order_study_csv(
                    study, out_dir / f"order_theta{theta:g}.csv"
                )

    if "scaling" in suites:
        config = iocfg.parse_config(
            "t_final = 10\nsnapshots = 1,2,3,4,5,6,7,8,9,10\n"
        )
        result = verify.scaling_equivalence(config)
        check("rescaling max nodal discrepancy", result.max_difference, SCALING_TOL)

    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haptosim",
        description="Finite-element simulator for a haptotaxis-driven "
        "tumour invasion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    p_run.add_argument("--config", help="path to a key = value config file")
    p_run.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p_run.add_argument("--out", help="output directory (overrides out_dir)")
    p_run.add_argument(
        "--backtrack", action="store_true",
        help="adapt the relaxation factor by backtracking instead of a fixed beta",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    p_sweep.add_argument("--config", help="base config file")
    p_sweep.add_argument(
        "--axis", action="append", required=True, metavar="KEY=V1,V2,...",
        help="sweep axis (repeatable; axes expand as a Cartesian product)",
    )
    p_sweep.add_argument("--out", help="output root directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel child runs")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run verification studies")
    p_verify.add_argument(
        "--suite", choices=("element", "ode", "order", "scaling", "all"),
        default="all",
    )
    p_verify.add_argument("--out", help="directory for study CSV reports")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
