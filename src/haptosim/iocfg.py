"""Run-configuration ingestion plus VTK and CSV emission.

Configuration files are flat ``key = value`` lines; ``#`` starts a comment.
Unknown keys are rejected, missing keys take the documented defaults.
Snapshots are written as legacy ASCII VTK unstructured grids (quad type 9 /
hexahedron type 12) with the three point-data arrays u, c, p; per-step
diagnostics are written as a flat CSV, and the per-step monitor flags and
sweep residuals as JSON lines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .mesh import StructuredMesh, build_structured_mesh
from .model import Parameters, SimState

# the model and scheme constants are the fields of Parameters, in its order
CONFIG_KEYS = (
    "dim", "domain_min", "domain_max", "base_cells", "refinements",
    *(f.name for f in fields(Parameters)),
    "snapshots", "out_dir", "vtk_every",
)

DIAGNOSTICS_HEADER = (
    "time,max_u,min_u,max_c,min_c,max_p,min_p,mass_u,mass_c,mass_p,fp_iters,breakdown"
)

_INT_COLUMNS = ("fp_iters", "breakdown")  # the other columns are floats

_VTK_CELL_TYPE = {2: 9, 3: 12}  # quad, hexahedron


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run setup."""

    dim: int
    extents: tuple[tuple[float, float], ...]
    base_cells: tuple[int, ...]
    refinements: int
    params: Parameters
    snapshots: tuple[float, ...]
    out_dir: str
    vtk_every: int

    def build_mesh(self) -> StructuredMesh:
        return build_structured_mesh(
            self.dim, self.extents, self.base_cells, self.refinements
        )

    def initial_data(self):
        """The initial profile x -> (u0, c0, p0) of every run."""
        return model.corner_gaussian

    @property
    def n_steps(self) -> int:
        return self.params.n_steps


def read_pairs(text: str):
    """Split config text into (where, key, raw_value) triples, ``where``
    being "line N", the place that error messages name."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        pairs.append((f"line {lineno}", key, value))
    return pairs


def _parse_int(key, value, where):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")


def _parse_float(key, value, where):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")


def _parse_list(parse, key, value, where):
    """The comma-separated entries of ``value``, each read by ``parse``."""
    return tuple(parse(key, part.strip(), where) for part in value.split(",") if part.strip())


def _per_axis(parse, key, value, where, dim):
    values = _parse_list(parse, key, value, where)
    if len(values) == 1:
        return values * dim
    if len(values) != dim:
        raise ConfigError(
            f"{where}: {key} needs 1 or {dim} comma-separated values, got {len(values)}"
        )
    return values


def build_config(pairs) -> RunConfig:
    """Validate key/value pairs (as from :func:`read_pairs` and
    :func:`apply_overrides`) into a RunConfig."""
    seen = {}
    for where, key, value in pairs:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first on {seen[key][0]})")
        seen[key] = (where, value)

    def raw(key, default=None):
        if key in seen:
            return seen[key]
        return ("default", default)

    where, value = raw("dim", "2")
    dim = _parse_int("dim", value, where)
    if dim not in (2, 3):
        raise ConfigError(f"dim must be 2 or 3, got {dim}")

    where, value = raw("domain_min", "0")
    lo = _per_axis(_parse_float, "domain_min", value, where, dim)
    where, value = raw("domain_max", "20")
    hi = _per_axis(_parse_float, "domain_max", value, where, dim)
    extents = tuple(zip(lo, hi))
    for axis, (a, b) in enumerate(extents):
        if not (b > a):
            raise ConfigError(f"domain interval [{a}, {b}] on axis {axis} is empty")

    where, value = raw("base_cells", "1")
    base_cells = _per_axis(_parse_int, "base_cells", value, where, dim)
    if any(b < 1 for b in base_cells):
        raise ConfigError(f"base_cells must be >= 1, got {base_cells}")

    where, value = raw("refinements", "5")
    refinements = _parse_int("refinements", value, where)
    if refinements < 0:
        raise ConfigError(f"refinements must be >= 0, got {refinements}")

    numbers = {}
    for f in fields(Parameters):
        if f.name in seen:
            where, value = seen[f.name]
            parse = _parse_int if isinstance(f.default, int) else _parse_float
            numbers[f.name] = parse(f.name, value, where)

    where, value = raw("snapshots", "5, 15, 25, 35")
    snapshots = _parse_list(_parse_float, "snapshots", value, where)
    for t in snapshots:
        if t < 0.0:
            raise ConfigError(f"snapshot time {t} is negative")
    try:
        params = Parameters(**numbers)
        params.n_steps  # the final time and each snapshot lie on a step boundary
        for t in snapshots:
            params.steps_to(t, "snapshot time")
    except model.ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    _, value = raw("out_dir", None)
    out_dir = value if value is not None else os.environ.get("HAPTOSIM_OUT", "out")

    where, value = raw("vtk_every", "0")
    vtk_every = _parse_int("vtk_every", value, where)
    if vtk_every < 0:
        raise ConfigError(f"vtk_every must be >= 0, got {vtk_every}")

    return RunConfig(
        dim=dim,
        extents=extents,
        base_cells=base_cells,
        refinements=refinements,
        params=params,
        snapshots=snapshots,
        out_dir=out_dir,
        vtk_every=vtk_every,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; see module docstring for the format."""
    return build_config(read_pairs(text))


def apply_overrides(pairs, overrides):
    """Apply ``key=value`` override strings on top of file pairs; the n-th
    override's errors are reported as "override n"."""
    merged = list(pairs)
    for n, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"override {n}: expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key, value = key.strip(), value.strip()
        merged = [p for p in merged if p[1] != key]
        merged.append((f"override {n}", key, value))
    return merged


def render_config(config: RunConfig) -> str:
    """Emit a config in canonical form; parse(render(c)) == c."""

    def floats(values):
        return ", ".join(repr(float(v)) for v in values)

    lines = [
        f"dim = {config.dim}",
        f"domain_min = {floats(lo for lo, _ in config.extents)}",
        f"domain_max = {floats(hi for _, hi in config.extents)}",
        f"base_cells = {', '.join(str(b) for b in config.base_cells)}",
        f"refinements = {config.refinements}",
        *(f"{f.name} = {getattr(config.params, f.name)}" for f in fields(Parameters)),
        f"snapshots = {floats(config.snapshots)}" if config.snapshots else "snapshots =",
        f"out_dir = {config.out_dir}",
        f"vtk_every = {config.vtk_every}",
    ]
    return "\n".join(lines) + "\n"


def write_vtk(state: SimState, path) -> None:
    """Write one snapshot as a legacy ASCII VTK unstructured grid.

    Numbers are printed with ``repr``, i.e. the shortest digit string that
    round-trips the double exactly.  Fields flagged as breakdown artifacts
    are marked in the title line.
    """
    mesh = state.mesh
    flagged = state.u.breakdown or state.c.breakdown or state.p.breakdown
    title = f"haptosim fields u,c,p at t={state.t!r}"
    if flagged:
        title += " [breakdown artifact]"

    n_nodes, n_cells = mesh.n_nodes, mesh.n_elements
    npe = mesh.nodes_per_element
    # each node's coordinates are those of its axes, so each axis coordinate
    # is printed once; rows join them with the first axis fastest, and z is
    # 0.0 in 2D
    axes = [list(map(repr, x.tolist())) for x in mesh.axis_nodes] + [["0.0"]]
    points = axes[0]
    for axis in axes[1:3]:
        points = [f"{row} {a}" for a in axis for row in points]
    sections = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_nodes} double",
        "\n".join(points),
        f"CELLS {n_cells} {n_cells * (npe + 1)}",
        _format_rows(f"{npe}" + " %d" * npe, mesh.elements()),
        f"CELL_TYPES {n_cells}",
        "\n".join([str(_VTK_CELL_TYPE[mesh.dim])] * n_cells),
        f"POINT_DATA {n_nodes}",
    ]
    for name, fld in (("u", state.u), ("c", state.c), ("p", state.p)):
        sections.append(f"SCALARS {name} double 1")
        sections.append("LOOKUP_TABLE default")
        sections.append("\n".join(map(repr, fld.coeffs.tolist())))

    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(sections) + "\n")


def _format_rows(row_format, table) -> str:
    """One line per row of a 2D array, all formatted in one pass: ``%r`` of
    a Python float is its ``repr``, ``%d`` of a Python int its ``str``."""
    return "\n".join([row_format] * len(table)) % tuple(table.ravel().tolist())


def write_diagnostics_csv(records, path) -> None:
    """Write per-step diagnostics; one row per completed time level.

    ``records`` is an iterable of objects exposing the column names of
    ``DIAGNOSTICS_HEADER`` as attributes (see the stepper's StepRecord).
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for rec in records:
            row = [
                str(int(getattr(rec, name))) if name in _INT_COLUMNS
                else repr(float(getattr(rec, name)))
                for name in DIAGNOSTICS_HEADER.split(",")
            ]
            fh.write(",".join(row) + "\n")
            if rec.breakdown:
                break


def write_events_jsonl(records, path) -> None:
    """Write one JSON line per committed step (every diagnostics row but the
    initial one): its time, sweep count, monitor flags, the (u, c, p)
    increment norms of each sweep, and the banded LU factorizations of the u
    and c systems and their solves from band factors (see the stepper's
    StepRecord)."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in records[1:]:
            event = {
                "time": float(rec.time),
                "fp_iters": int(rec.fp_iters),
                "warnings": list(rec.warnings),
                "sweep_residuals": [list(r) for r in rec.sweep_residuals],
                "band_factorizations": dict(zip("uc", rec.band_factorizations)),
                "band_substitutions": dict(zip("uc", rec.band_substitutions)),
            }
            fh.write(json.dumps(event) + "\n")
            if rec.breakdown:
                break


def read_diagnostics_csv(path):
    """Read a diagnostics CSV back as a dict of column -> numpy array."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != DIAGNOSTICS_HEADER:
            raise ConfigError(f"unexpected diagnostics header in {path}")
        columns = header.split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows])
    if data.size == 0:
        data = data.reshape(0, len(columns))
    return {name: data[:, k] for k, name in enumerate(columns)}
