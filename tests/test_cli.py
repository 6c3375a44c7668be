import numpy as np

from haptosim import cli
from haptosim.iocfg import read_diagnostics_csv

from vtk_grammar import check_vtk_file

SMALL_RUN = (
    "refinements = 2\nmu = 0.5\nchi = 0.01\nt_final = 4\nsnapshots = 2, 4\n"
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_success_produces_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv",
        "snapshot_t2.vtk",
        "snapshot_t4.vtk",
    ]
    check_vtk_file(out / "snapshot_t2.vtk")
    data = read_diagnostics_csv(out / "diagnostics.csv")
    assert len(data["time"]) == 5  # initial row + 4 steps
    assert np.all(data["breakdown"] == 0)


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


def test_run_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "theta = 1.5\n")
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_run_vtk_cadence(tmp_path):
    cfg = write_config(
        tmp_path,
        "refinements = 1\nt_final = 4\nsnapshots =\nvtk_every = 2\n",
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    steps = sorted(p.name for p in out.iterdir() if p.name.startswith("step_"))
    assert steps == ["step_000002.vtk", "step_000004.vtk"]


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
    cfg = write_config(tmp_path, "refinements = 1\nt_final = 2\nsnapshots = 1\n")
    out = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "--config", cfg, "--axis", "tol_lin=1e-30,1e-12", "--out", str(out)]
    )
    assert code == cli.EXIT_SOLVE
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    failed = lines[1].split(",")
    passed = lines[2].split(",")
    assert failed[0] == "1e-30" and failed[-1] == str(cli.EXIT_SOLVE)
    assert passed[0] == "1e-12" and passed[-2:] == ["0", "0"] and passed[1] != ""
    partial = read_diagnostics_csv(out / "tol_lin-1e-30" / "diagnostics.csv")
    np.testing.assert_array_equal(partial["time"], [0.0])


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
