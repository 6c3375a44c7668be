import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.iocfg import (
    CONFIG_KEYS,
    ConfigError,
    apply_overrides,
    build_config,
    parse_config,
    read_pairs,
    render_config,
    write_diagnostics_csv,
    write_events_jsonl,
    write_vtk,
    read_diagnostics_csv,
    DIAGNOSTICS_HEADER,
)
from haptosim.mesh import build_structured_mesh, interpolate
from haptosim.model import SimState
from haptosim.stepper import StepRecord

from vtk_grammar import check_vtk_file


def test_empty_config_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.dim == 2
    assert cfg.extents == ((0.0, 20.0), (0.0, 20.0))
    assert cfg.base_cells == (1, 1)
    assert cfg.refinements == 5
    assert cfg.params.alpha == 10.0
    assert cfg.params.epsilon == 0.2
    assert cfg.params.theta == 0.5
    assert cfg.params.dt == 1.0
    assert cfg.params.t_final == 50.0
    assert cfg.params.beta == 0.5
    assert cfg.params.tol_fp == 1e-8
    assert cfg.snapshots == (5.0, 15.0, 25.0, 35.0)
    # the corner Gaussian: u0 = 1 and c0 = p0 = 0.5 at the origin
    values = cfg.initial_data()(np.zeros((1, 2)))
    assert [f.tolist() for f in values] == [[1.0], [0.5], [0.5]]
    cfg.build_mesh()  # defaults build the reference 33x33 grid
    assert cfg.n_steps == 50


def test_readme_lists_the_recognized_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Recognized keys:\n\n```\n", 1)[1].split("```", 1)[0]
    assert tuple(key.strip() for key in block.replace("\n", " ").split(",")) == CONFIG_KEYS


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        "# a comment\n\nmu = 0.25  # trailing comment\n   \nchi = 0.75\n"
    )
    assert cfg.params.mu == 0.25
    assert cfg.params.chi == 0.75


def test_haptotaxis_sweep_configuration():
    cfg = parse_config("chi = 0.75\nmu = 0.01\n")
    assert cfg.params.chi == 0.75
    assert cfg.params.mu == 0.01


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("theta = 1.5\n", "theta"),
        ("nonsense = 3\n", "unknown key"),
        ("mu 3\n", "key = value"),
        ("mu = abc\n", "number"),
        ("dim = 4\n", "dim"),
        ("mu = 0.5\nmu = 0.6\n", "duplicate"),
        ("snapshots = 2.5\n", "step boundary"),
        ("snapshots = -5\n", "negative"),
        ("t_final = 10.5\n", "whole number"),
        ("dt = 1e-320\n", "whole number"),
        ("snapshots = inf\n", "step boundary"),
        ("snapshots = nan\n", "step boundary"),
        ("domain_min = 5\ndomain_max = 5\n", "empty"),
        ("base_cells = 0\n", "base_cells"),
        ("refinements = -1\n", "refinements"),
        ("vtk_every = -2\n", "vtk_every"),
        ("initial = unknown-family\n", "initial"),
        ("domain_min = 1,2,3\n", "domain_min"),
        ("base_cells = 1, 2, 3\n", "line 1: base_cells"),
        # the sweep's mixing depth and the initial data are no longer keys
        ("accel = -1\n", "accel"),
        ("accel = 2.5\n", "accel"),
        ("accel = 5\n", "unknown key"),
        ("initial = corner-gaussian\n", "unknown key"),
    ],
)
def test_invalid_configs_rejected(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_duplicate_key_error_names_both_lines():
    with pytest.raises(ConfigError) as err:
        parse_config("mu = 0.5\nmu = 0.6\n")
    assert "line 2: duplicate key 'mu' (first on line 1)" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("mu = 0.5\nchi = 0.01\nbroken line\n")


def test_per_axis_values():
    cfg = parse_config("dim = 3\ndomain_min = 0,0,1\ndomain_max = 2,3,4\nbase_cells = 1,2,3\n")
    assert cfg.extents == ((0.0, 2.0), (0.0, 3.0), (1.0, 4.0))
    assert cfg.base_cells == (1, 2, 3)


def test_overrides_replace_file_values():
    pairs = read_pairs("mu = 0.5\nchi = 0.01\n")
    cfg = build_config(apply_overrides(pairs, ["mu=1.0", "out_dir=/tmp/x"]))
    assert cfg.params.mu == 1.0
    assert cfg.params.chi == 0.01
    assert cfg.out_dir == "/tmp/x"
    with pytest.raises(ConfigError):
        apply_overrides(pairs, ["not-an-assignment"])


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["mu=abc"], "override 1: mu must be a number, got 'abc'"),
        (["chi=0.1", "base_cells=1,2,3"],
         "override 2: base_cells needs 1 or 2 comma-separated values, got 3"),
    ],
)
def test_override_errors_name_the_override(overrides, message):
    pairs = read_pairs("mu = 0.5\nchi = 0.01\n")
    with pytest.raises(ConfigError) as err:
        build_config(apply_overrides(pairs, overrides))
    assert str(err.value) == message


def test_out_dir_defaults_to_environment_root(monkeypatch):
    monkeypatch.setenv("HAPTOSIM_OUT", "/tmp/haptosim-env")
    assert parse_config("").out_dir == "/tmp/haptosim-env"
    assert parse_config("out_dir = explicit\n").out_dir == "explicit"
    monkeypatch.delenv("HAPTOSIM_OUT")
    assert parse_config("").out_dir == "out"


def test_render_parse_round_trip_defaults():
    cfg = parse_config("")
    assert parse_config(render_config(cfg)) == cfg


@given(
    mu=st.floats(1e-10, 10.0),
    chi=st.floats(0.0, 2.0),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
    steps=st.integers(1, 60),
    dt_exp=st.integers(-3, 1),
    refinements=st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_render_parse_round_trip_random(mu, chi, theta, steps, dt_exp, refinements):
    dt = 2.0**dt_exp
    cfg = parse_config(
        f"mu = {mu!r}\nchi = {chi!r}\ntheta = {theta!r}\n"
        f"dt = {dt!r}\nt_final = {steps * dt!r}\n"
        f"refinements = {refinements}\nsnapshots = {steps * dt!r}\n"
    )
    assert parse_config(render_config(cfg)) == cfg


def _tiny_state(constant=1.0, dim=2):
    mesh = build_structured_mesh(dim, ((0.0, 1.0),) * dim, (1,) * dim, 0)
    make = lambda v: interpolate(lambda x: v, mesh)
    return SimState(0.0, make(constant), make(constant), make(constant))


def test_vtk_single_element_structure(tmp_path):
    state = _tiny_state()
    path = tmp_path / "snap.vtk"
    write_vtk(state, path)
    points, arrays = check_vtk_file(path)
    assert points.shape == (4, 3)
    assert np.all(points[:, 2] == 0.0)  # z padded in 2D
    for name in ("u", "c", "p"):
        np.testing.assert_array_equal(arrays[name], 1.0)
    text = path.read_text()
    assert "CELLS 1 5" in text
    # constant unit fields are printed exactly as 1.0
    assert "\n1.0\n" in text


def test_vtk_hexahedron_cell_type(tmp_path):
    state = _tiny_state(dim=3)
    path = tmp_path / "snap3d.vtk"
    write_vtk(state, path)
    points, _ = check_vtk_file(path)
    assert points.shape == (8, 3)
    assert "\n12" in path.read_text()


def test_vtk_round_trip_values(tmp_path):
    mesh = build_structured_mesh(2, ((0.0, 2.0), (0.0, 2.0)), (2, 2), 0)
    rng = np.random.default_rng(9)
    fields = [rng.uniform(0, 1, mesh.n_nodes) for _ in range(3)]
    from haptosim.mesh import FeField

    state = SimState(3.0, *(FeField(mesh, f) for f in fields))
    path = tmp_path / "values.vtk"
    write_vtk(state, path)
    points, arrays = check_vtk_file(path)
    np.testing.assert_array_equal(points[:, :2], mesh.node_coords())
    np.testing.assert_array_equal(arrays["u"], fields[0])
    np.testing.assert_array_equal(arrays["c"], fields[1])
    np.testing.assert_array_equal(arrays["p"], fields[2])


def test_vtk_output_is_byte_deterministic(tmp_path):
    state = _tiny_state(0.123456789012345)
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(state, a)
    write_vtk(state, b)
    assert a.read_bytes() == b.read_bytes()


def test_vtk_breakdown_artifact_flagged(tmp_path):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0)
    from haptosim.mesh import FeField

    bad = FeField(mesh, np.array([1.0, np.nan, 1.0, 1.0]), breakdown=True)
    ok = interpolate(lambda x: 1.0, mesh)
    state = SimState(2.0, bad, ok, ok)
    path = tmp_path / "artifact.vtk"
    write_vtk(state, path)
    assert "[breakdown artifact]" in path.read_text().splitlines()[1]


def _reference_vtk_text(state) -> str:
    """The writer as a plain per-line loop, the oracle for its bytes."""
    mesh = state.mesh
    title = f"haptosim fields u,c,p at t={state.t!r}"
    if state.u.breakdown or state.c.breakdown or state.p.breakdown:
        title += " [breakdown artifact]"
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    for x in mesh.node_coords():
        coords = list(x) + [0.0] * (3 - mesh.dim)
        lines.append(" ".join(repr(float(c)) for c in coords))
    npe = mesh.nodes_per_element
    lines.append(f"CELLS {mesh.n_elements} {mesh.n_elements * (npe + 1)}")
    for elem in mesh.elements():
        lines.append(f"{npe} " + " ".join(str(i) for i in elem))
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(str({2: 9, 3: 12}[mesh.dim]) for _ in range(mesh.n_elements))
    lines.append(f"POINT_DATA {mesh.n_nodes}")
    for name, fld in (("u", state.u), ("c", state.c), ("p", state.p)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(repr(float(v)) for v in fld.coeffs)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim, cells, lower", [
    (2, (1, 1), (0.0, 0.0)),
    (2, (3, 2), (0.5, -1.5)),
    (3, (2, 1, 3), (-1.0, 0.0, 0.25)),
], ids=["2d-1x1", "2d-3x2", "3d-2x1x3"])
@pytest.mark.parametrize("breakdown", [False, True], ids=["clean", "breakdown"])
def test_vtk_bytes_match_the_per_line_reference(tmp_path, dim, cells, lower, breakdown):
    from haptosim.mesh import FeField

    extents = tuple((lo, lo + 1.0 + 0.1 * d) for d, lo in enumerate(lower))
    mesh = build_structured_mesh(dim, extents, cells, 0)
    rng = np.random.default_rng(dim * 10 + len(cells))
    fields = [rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.integers(-300, 300, mesh.n_nodes)
              for _ in range(3)]
    fields[1][0] = -0.0
    fields[2][-1] = 0.1 + 0.2
    if breakdown:
        fields[0][0] = np.nan
        fields[1][-1] = np.inf
        fields[2][0] = -np.inf
    state = SimState(7.000000000000001, *(FeField(mesh, f, breakdown) for f in fields))
    path = tmp_path / "snap.vtk"
    write_vtk(state, path)
    assert path.read_bytes() == _reference_vtk_text(state).encode("ascii")


def _record(time, fp=3, breakdown=0, warnings=(), sweep_residuals=(), factored=(0, 0),
            substituted=(0, 0)):
    return StepRecord(
        time, 0.31, 0.0, 1.0, 0.5, 0.5, 0.0, 3.1, 390.0, 0.7, fp, breakdown,
        warnings, sweep_residuals, factored, substituted,
    )


def test_diagnostics_csv_zero_step_run(tmp_path):
    path = tmp_path / "diag.csv"
    write_diagnostics_csv([_record(0.0, fp=0)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("0.0,")


def test_diagnostics_csv_breakdown_truncates(tmp_path):
    path = tmp_path / "diag.csv"
    records = [_record(0.0, fp=0), _record(1.0), _record(2.0, breakdown=1), _record(3.0)]
    write_diagnostics_csv(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + rows up to and including the breakdown row
    assert lines[-1].endswith(",1")


def test_diagnostics_csv_read_back(tmp_path):
    path = tmp_path / "diag.csv"
    write_diagnostics_csv([_record(0.0, fp=0), _record(1.0)], path)
    data = read_diagnostics_csv(path)
    np.testing.assert_array_equal(data["time"], [0.0, 1.0])
    np.testing.assert_array_equal(data["max_u"], [0.31, 0.31])
    np.testing.assert_array_equal(data["fp_iters"], [0.0, 3.0])


def test_events_jsonl_lines_per_step(tmp_path):
    path = tmp_path / "events.jsonl"
    history = ((0.5, 0.25, 0.125), (1e-9, 2e-9, 3e-10))
    records = [
        _record(0.0, fp=0),
        _record(1.0, fp=2, warnings=("oscillation:u",), sweep_residuals=history,
                factored=(1, 2), substituted=(5, 4)),
        _record(2.0, fp=1, breakdown=1, warnings=("breakdown",), factored=(0, 1),
                substituted=(3, 1)),
        _record(3.0),
    ]
    write_events_jsonl(records, path)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    # no line for the initial row; none past the breakdown row
    assert events == [
        {"time": 1.0, "fp_iters": 2, "warnings": ["oscillation:u"],
         "sweep_residuals": [list(r) for r in history],
         "band_factorizations": {"u": 1, "c": 2}, "band_substitutions": {"u": 5, "c": 4}},
        {"time": 2.0, "fp_iters": 1, "warnings": ["breakdown"], "sweep_residuals": [],
         "band_factorizations": {"u": 0, "c": 1}, "band_substitutions": {"u": 3, "c": 1}},
    ]
