"""Command-line orchestration: single runs, parameter sweeps, verification.

Exit codes are a stable contract:
0 success, 2 config error, 3 breakdown, 4 fixed-point nonconvergence,
5 verification failure, 6 linear-solve failure (1 is reserved for
unexpected errors).  A run writes ``diagnostics.csv`` and, beside it,
``events.jsonl`` with each step's monitor flags and sweep residuals; a run
stopped by nonconvergence or a linear-solve failure writes both up to its
last committed step, and that step's state as ``last_good_t<t>.vtk``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
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


def _read_pairs(path):
    if path is None:
        return []
    return iocfg.read_pairs(Path(path).read_text(encoding="utf-8"))


def load_config(pairs, overrides=(), out_dir=None) -> RunConfig:
    """The config of file pairs with ``key=value`` overrides and, when given,
    the output directory on top."""
    overrides = list(overrides) + ([] if out_dir is None else [f"out_dir={out_dir}"])
    return iocfg.build_config(iocfg.apply_overrides(pairs, overrides))


def _cadence_writer(config: RunConfig, out: Path):
    """Per-step VTK emission every ``vtk_every`` steps (0 disables it)."""
    if config.vtk_every <= 0:
        return None

    def on_step(n, state):
        if n % config.vtk_every == 0:
            iocfg.write_vtk(state, out / f"step_{n:06d}.vtk")

    return on_step


def _emit_records(out: Path, records) -> None:
    iocfg.write_diagnostics_csv(records, out / "diagnostics.csv")
    iocfg.write_events_jsonl(records, out / "events.jsonl")


def run_and_emit(config: RunConfig):
    """Run one config, write its outputs under ``config.out_dir`` and print
    why it stopped early, if it did, and where its outputs are to stderr.

    Returns the exit code and the diagnostics of the committed steps.  A
    stop by nonconvergence or a linear-solve failure still writes those
    diagnostics and the last committed state.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = stepper.run(config, on_step=_cadence_writer(config, out))
    except (stepper.NonconvergenceError, stepper.StepError) as exc:
        stalled = isinstance(exc, stepper.NonconvergenceError)
        print(f"{'nonconvergence' if stalled else 'linear-solve failure'}: {exc}; "
              f"outputs in {out}", file=sys.stderr)
        _emit_records(out, exc.records)
        iocfg.write_vtk(exc.state, out / f"last_good_t{exc.state.t:g}.vtk")
        return (EXIT_NONCONVERGENCE if stalled else EXIT_SOLVE), exc.records
    for t, state in result.snapshots:
        iocfg.write_vtk(state, out / f"snapshot_t{t:g}.vtk")
    _emit_records(out, result.diagnostics)
    b = result.breakdown
    if b is None:
        return EXIT_OK, result.diagnostics
    iocfg.write_vtk(result.state, out / f"breakdown_t{b.time:g}.vtk")
    print(
        f"breakdown at t = {b.time:g} (sweep {b.iteration}, field {b.field}): "
        f"{b.reason}; outputs in {out}",
        file=sys.stderr,
    )
    return EXIT_BREAKDOWN, result.diagnostics


def cmd_run(args) -> int:
    try:
        config = load_config(_read_pairs(args.config), args.set, args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    params = config.params
    ringing = params.ringing_number
    if ringing > 1.0:
        # p^(n+1) (1 + theta dt / epsilon) = (1 - ringing) p^n without sources
        factor = (1.0 - ringing) / (1.0 + params.theta * params.dt / params.epsilon)
        print(f"note: ringing number (1 - theta) dt / epsilon = {ringing:g} exceeds 1, "
              f"so p rings with factor {factor:.3g} per step", file=sys.stderr)
    code, _ = run_and_emit(config)
    if code == EXIT_OK:
        print(f"completed {config.n_steps} steps to t = {config.params.t_final:g}; "
              f"outputs in {config.out_dir}")
    return code


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


def sweep_members(axes, out_root: Path):
    """Each member's (key, value) pairs and output directory, the axes
    expanded as a Cartesian product."""
    members = []
    for combo in itertools.product(*(values for _, values in axes)):
        key_values = [(key, v) for (key, _), v in zip(axes, combo)]
        subdir = out_root / "_".join(f"{k}-{v}" for k, v in key_values)
        members.append((key_values, str(subdir)))
    return members


def _sweep_child(pairs, key_values, out_dir):
    """Run one sweep member; returns its exit code and max u per snapshot
    time (None past the last committed step, none at all on a config error)."""
    try:
        config = load_config(pairs, [f"{k}={v}" for k, v in key_values], out_dir)
    except ConfigError as exc:
        print(f"config error in {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG, {}
    code, records = run_and_emit(config)
    peaks = {}
    for t in config.snapshots:
        n = config.params.steps_to(t)  # diagnostics row n belongs to step n
        peaks[t] = records[n].max_u if n < len(records) else None
    return code, peaks


def cmd_sweep(args) -> int:
    try:
        axes = _parse_axes(args.axis)
        pairs = _read_pairs(args.config)
        base = load_config(pairs, out_dir=args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = Path(base.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    members = sweep_members(axes, out_root)
    child = functools.partial(_sweep_child, pairs)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(child, *zip(*members)))
    else:
        results = [child(kv, sub) for kv, sub in members]

    summary = out_root / "summary.csv"
    with open(summary, "w", encoding="ascii") as fh:
        head = [key for key, _ in axes]
        head += [f"max_u_t{t:g}" for t in base.snapshots] + ["breakdown", "exit"]
        fh.write(",".join(head) + "\n")
        for (key_values, _), (code, peaks) in zip(members, results):
            row = [v for _, v in key_values]
            for t in base.snapshots:
                value = peaks.get(t)
                row.append("" if value is None else repr(float(value)))
            row.append("" if code == EXIT_CONFIG else str(int(code == EXIT_BREAKDOWN)))
            row.append(str(code))
            fh.write(",".join(row) + "\n")

    print(f"swept {len(members)} runs; summary in {summary}")
    return max((code for code, _ in results), default=EXIT_OK)


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
