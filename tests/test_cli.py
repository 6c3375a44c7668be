import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haptosim import cli, linsolve
from haptosim.iocfg import parse_config, read_diagnostics_csv
from haptosim.model import interpolate_initial_state

from vtk_grammar import check_vtk_file

SMALL_RUN = (
    "refinements = 2\nmu = 0.5\nchi = 0.01\nt_final = 4\nsnapshots = 2, 4\n"
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_events(out):
    lines = (out / "events.jsonl").read_text(encoding="ascii").splitlines()
    return [json.loads(line) for line in lines]


def test_run_success_produces_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv",
        "events.jsonl",
        "snapshot_t2.vtk",
        "snapshot_t4.vtk",
    ]
    check_vtk_file(out / "snapshot_t2.vtk")
    data = read_diagnostics_csv(out / "diagnostics.csv")
    assert len(data["time"]) == 5  # initial row + 4 steps
    assert np.all(data["breakdown"] == 0)
    # one event per committed step, with the residuals of each of its sweeps
    events = read_events(out)
    assert [e["time"] for e in events] == data["time"][1:].tolist()
    assert [e["fp_iters"] for e in events] == data["fp_iters"][1:].tolist()
    for event in events:
        history = event["sweep_residuals"]
        assert len(history) == event["fp_iters"]
        assert all(len(r) == 3 for r in history)
        assert max(history[-1]) < 1e-8 <= max(history[0])


def test_run_events_carry_the_monitor_flags(tmp_path):
    # the strong-drift run undershoots from its first step on
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--set", "chi=1.25", "--set", "mu=0.01", "--set", "t_final=2",
         "--set", "snapshots=", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    events = read_events(out)
    assert [e["time"] for e in events] == [1.0, 2.0]
    assert all("oscillation:u" in e["warnings"] for e in events)


def test_run_events_count_the_band_factorizations(tmp_path):
    # on 4^2 (band half-width 6, below linsolve.REFINE_MIN_KL) every u and c
    # solve factors its matrix; on 32^2 the solves refine from held factors,
    # so a step factors less often than it sweeps
    small, large = tmp_path / "small", tmp_path / "large"
    code = cli.main(["run", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(small)])
    assert code == cli.EXIT_OK
    for event in read_events(small):
        n = event["fp_iters"]
        assert event["band_factorizations"] == {"u": n, "c": n}
    code = cli.main(["run", "--set", "t_final=3", "--set", "snapshots=", "--out", str(large)])
    assert code == cli.EXIT_OK
    events = read_events(large)
    first = events[0]["band_factorizations"]
    assert first["u"] >= 1 and first["c"] >= 1  # nothing is held before the run
    for event in events:
        factored = event["band_factorizations"]
        assert factored["u"] + factored["c"] < event["fp_iters"]


def test_run_events_count_the_band_substitutions(tmp_path, monkeypatch):
    # every solve from band factors, by dgbtrs or by the pair of BLAS
    # triangular solves (counted at its L solve), is booked to its step
    routes = {"dgbtrs": 0, "triangles": 0}
    dgbtrs, dtbsv = linsolve.lapack.dgbtrs, linsolve.blas.dtbsv

    def counted_dgbtrs(*args, **kwargs):
        routes["dgbtrs"] += 1
        return dgbtrs(*args, **kwargs)

    def counted_dtbsv(*args, **kwargs):
        routes["triangles"] += bool(kwargs.get("lower"))
        return dtbsv(*args, **kwargs)

    monkeypatch.setattr(linsolve.lapack, "dgbtrs", counted_dgbtrs)
    monkeypatch.setattr(linsolve.blas, "dtbsv", counted_dtbsv)
    out = tmp_path / "out"
    code = cli.main(["run", "--set", "mu=1e-10", "--set", "t_final=5", "--set", "snapshots=",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    events = read_events(out)
    assert len(events) == 5
    booked = sum(e["band_substitutions"]["u"] + e["band_substitutions"]["c"] for e in events)
    assert booked == routes["dgbtrs"] + routes["triangles"]
    # the 32^2 factors interchange no rows, so they solve by the triangles
    assert routes["triangles"] > 0
    for event in events:
        for name in "uc":
            # each factorization solves once, each refinement step once more
            assert event["band_substitutions"][name] >= event["band_factorizations"][name]


def test_run_set_overrides(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--config", cfg, "--set", "t_final=2", "--set", "snapshots=2",
         "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert (out / "snapshot_t2.vtk").exists()
    assert not (out / "snapshot_t4.vtk").exists()


def test_run_defaults_without_config_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("HAPTOSIM_OUT", str(tmp_path / "envout"))
    code = cli.main(["run", "--set", "refinements=1", "--set", "t_final=1",
                     "--set", "snapshots=1"])
    assert code == cli.EXIT_OK
    assert (tmp_path / "envout" / "diagnostics.csv").exists()


@pytest.mark.parametrize("theta, err", [
    (0.5, "note: ringing number (1 - theta) dt / epsilon = 2.5 exceeds 1, "
          "so p rings with factor -0.429 per step\n"),
    (1.0, ""),
], ids=["theta0.5", "theta1"])
def test_run_states_a_ringing_number_above_one_once(tmp_path, capsys, theta, err):
    code = cli.main(["run", "--set", "refinements=1", "--set", "t_final=2",
                     "--set", "snapshots=1", "--set", f"theta={theta}",
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == err


def test_run_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "theta = 1.5\n")
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_the_mixing_depth_as_a_key(tmp_path, capsys):
    # the sweep's mixing depth is a constant, not a config key
    code = cli.main(["run", "--set", "accel=5", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_import_loads_no_other_scipy_subpackage():
    # the package needs only scipy.linalg and scipy.sparse; scipy.integrate
    # alone would add about 19 MB and 0.3 s to every run
    script = (
        "import sys, haptosim, haptosim.cli\n"
        "print(' '.join(sorted({n.split('.')[1] for n, m in sys.modules.items()\n"
        "    if n.startswith('scipy.') and hasattr(m, '__path__')})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    public = {name for name in done.stdout.split() if not name.startswith("_")}
    assert public <= {"linalg", "sparse"}, public


def test_run_missing_config_file(tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == cli.EXIT_CONFIG


def test_run_breakdown_exit_code_and_artifacts(tmp_path, capsys):
    # a tiny blowup threshold forces the breakdown path deterministically
    cfg = write_config(
        tmp_path,
        "refinements = 1\nt_final = 4\nsnapshots = 1\nblowup_threshold = 0.4\n",
    )
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_BREAKDOWN
    assert "breakdown" in capsys.readouterr().err
    data = read_diagnostics_csv(out / "diagnostics.csv")
    assert data["breakdown"][-1] == 1
    artifacts = [p.name for p in out.iterdir() if p.name.startswith("breakdown")]
    assert artifacts  # flagged partial state retained


def test_run_nonconvergence_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "refinements = 1\nmu = 1.0\nt_final = 3\nsnapshots =\nmax_fp_iters = 2\n",
    )
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NONCONVERGENCE
    assert "nonconvergence" in capsys.readouterr().err


def test_run_nonconvergence_leaves_partial_diagnostics(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--set", "max_fp_iters=3", "--set", "t_final=2", "--out", str(out)]
    )
    assert code == cli.EXIT_NONCONVERGENCE
    assert "nonconvergence" in capsys.readouterr().err
    data = read_diagnostics_csv(out / "diagnostics.csv")  # checks the header
    np.testing.assert_array_equal(data["time"], [0.0])
    assert data["fp_iters"][0] == 0 and data["breakdown"][0] == 0
    assert_last_good_state_at_t0(out)


def test_run_linear_solve_failure_exit_code(tmp_path, capsys):
    # no solve reaches a relative residual of 1e-30
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--set", "tol_lin=1e-30", "--set", "t_final=1", "--out", str(out)]
    )
    assert code == cli.EXIT_SOLVE == 6
    assert "linear-solve failure" in capsys.readouterr().err
    data = read_diagnostics_csv(out / "diagnostics.csv")
    np.testing.assert_array_equal(data["time"], [0.0])
    assert_last_good_state_at_t0(out)


def assert_last_good_state_at_t0(out):
    """The stopped run wrote its last committed state, the initial data."""
    assert sorted(p.name for p in out.glob("*.vtk")) == ["last_good_t0.vtk"]
    config = parse_config("")
    state0 = interpolate_initial_state(config.initial_data(), config.build_mesh())
    _, fields = check_vtk_file(out / "last_good_t0.vtk")
    for name in ("u", "c", "p"):
        np.testing.assert_array_equal(fields[name], getattr(state0, name).coeffs)


def test_run_vtk_cadence(tmp_path):
    cfg = write_config(
        tmp_path,
        "refinements = 1\nt_final = 4\nsnapshots =\nvtk_every = 2\n",
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    steps = sorted(p.name for p in out.iterdir() if p.name.startswith("step_"))
    assert steps == ["step_000002.vtk", "step_000004.vtk"]


def test_sweep_member_writes_the_vtk_cadence(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 2\nsnapshots =\nvtk_every = 1\n")
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", cfg, "--axis", "mu=0.3", "--out", str(out)])
    assert code == cli.EXIT_OK
    steps = sorted(p.name for p in (out / "mu-0.3").glob("step_*.vtk"))
    assert steps == ["step_000001.vtk", "step_000002.vtk"]
    check_vtk_file(out / "mu-0.3" / "step_000001.vtk")


def readme_experiments():
    """The commands of the README's block of the paper's experiments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("### The paper's experiments", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("haptosim ")]


def experiment_configs(argv):
    """The configs that a README command would run, built without running."""
    assert argv[0] == "haptosim"
    args = cli.build_parser().parse_args(argv[1:])
    assert args.config is None
    if args.command == "run":
        return [cli.load_config([], args.set, args.out)]
    members = cli.sweep_members(cli._parse_axes(args.axis), Path(args.out))
    return [
        cli.load_config([], [f"{k}={v}" for k, v in key_values], out_dir)
        for key_values, out_dir in members
    ]


# (dim, mu, chi, t_final, snapshots, out_dir) of each member, in command order
PAPER_EXPERIMENTS = [
    [(2, mu, 0.01, 50.0, (5.0, 15.0, 25.0, 35.0), f"out/mu_sweep/mu-{name}_chi-0.01")
     for mu, name in ((1e-10, "1e-10"), (0.5, "0.5"), (1.0, "1.0"))],
    [(2, 0.01, chi, 50.0, (5.0, 15.0, 25.0, 35.0), f"out/chi_sweep/chi-{chi}_mu-0.01")
     for chi in (0.25, 0.75, 1.25)],
    [(2, 1.0, 1.0, 50.0, (0.0, 10.0, 20.0, 30.0), "out/equal_rates")],
    [(3, 1.0, 1.0, 35.0, (5.0, 15.0, 25.0, 35.0), "out/invasion_3d")],
]


@pytest.mark.parametrize(
    "index", range(len(PAPER_EXPERIMENTS)),
    ids=["mu-sweep", "chi-sweep", "equal-rates", "invasion-3d"],
)
def test_readme_experiment_commands_build_their_configs(index):
    commands = readme_experiments()
    assert len(commands) == len(PAPER_EXPERIMENTS)
    configs = experiment_configs(commands[index])
    got = [
        (c.dim, c.params.mu, c.params.chi, c.params.t_final, c.snapshots, c.out_dir)
        for c in configs
    ]
    assert got == [(*e[:5], str(Path(e[5]))) for e in PAPER_EXPERIMENTS[index]]
    for c in configs:  # the reference grid: 32 cells per axis
        assert c.base_cells == (1,) * c.dim and c.refinements == 5


def test_sweep_cartesian_expansion(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 2\nsnapshots = 1, 2\n")
    out = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "--config", cfg, "--axis", "mu=0.25,0.5", "--axis",
         "chi=0.01,0.05", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert subdirs == [
        "mu-0.25_chi-0.01",
        "mu-0.25_chi-0.05",
        "mu-0.5_chi-0.01",
        "mu-0.5_chi-0.05",
    ]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "mu,chi,max_u_t1,max_u_t2,breakdown,exit"
    assert len(lines) == 5
    assert all(line.endswith(",0,0") for line in lines[1:])


def test_sweep_records_child_failures_and_continues(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 2\nsnapshots = 1\n")
    out = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "--config", cfg, "--axis", "blowup_threshold=0.4,1e6",
         "--out", str(out)]
    )
    assert code == cli.EXIT_BREAKDOWN
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[-1] == str(cli.EXIT_BREAKDOWN) and first[-2] == "1"
    assert second[-1] == "0" and second[-2] == "0"


def test_sweep_member_solve_failure_gets_its_code_and_others_run(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 2\nsnapshots = 0, 1\n")
    out = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "--config", cfg, "--axis", "tol_lin=1e-30,1e-12", "--out", str(out)]
    )
    assert code == cli.EXIT_SOLVE
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "tol_lin,max_u_t0,max_u_t1,breakdown,exit"
    assert len(lines) == 3
    failed = lines[1].split(",")
    passed = lines[2].split(",")
    assert failed[0] == "1e-30" and failed[-1] == str(cli.EXIT_SOLVE)
    assert passed[0] == "1e-12" and passed[-2:] == ["0", "0"] and passed[2] != ""
    # the failed member committed t = 0 only: its peak there, none at t = 1
    assert failed[1] == passed[1] != "" and failed[2] == "" and failed[3] == "0"
    partial = read_diagnostics_csv(out / "tol_lin-1e-30" / "diagnostics.csv")
    np.testing.assert_array_equal(partial["time"], [0.0])
    assert (out / "tol_lin-1e-30" / "last_good_t0.vtk").is_file()


def test_sweep_reproducible_summary(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 1\nsnapshots = 1\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["sweep", "--config", cfg, "--axis", "mu=0.3,0.6", "--out", str(out)]
        ) == cli.EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_parallel_jobs_match_serial(tmp_path):
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 1\nsnapshots = 1\n")
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    cli.main(["sweep", "--config", cfg, "--axis", "mu=0.3,0.6", "--out", str(serial)])
    cli.main(
        ["sweep", "--config", cfg, "--axis", "mu=0.3,0.6", "--jobs", "2",
         "--out", str(parallel)]
    )
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()


def test_verify_element_suite(capsys):
    assert cli.main(["verify", "--suite", "element"]) == cli.EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_verify_ode_suite(capsys):
    assert cli.main(["verify", "--suite", "ode"]) == cli.EXIT_OK


def test_verify_order_suite_writes_reports(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "order", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "order_theta0.5.csv").exists()
    assert (tmp_path / "order_theta1.csv").exists()
