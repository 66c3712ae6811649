"""Shared test helpers: independent oracles and small instance builders.

The oracles here are deliberately naive (triple loops, BFS) and stay
independent of the production code paths they check.
"""

from __future__ import annotations

import csv
import importlib
import json
import shlex
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

import nbsopt
from nbsopt import GridDims, Instance, Masks, NbsType, ObjectiveWeights, UcMeasure
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement
from nbsopt.instance import validate_instance
from nbsopt.kernels import TEMP_MAX, Kernel, default_kernel_set
from nbsopt.model import (
    FEAS_TOL,
    OBJECTIVE_MATCH_TOL,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    BuiltModel,
    CsrMatrix,
    MipProblem,
    build_model,
    linearization_big_m,
    objective_normalizers,
    values_close,
)
from nbsopt.solve import Answer, SolveConfig, SolveResult, check_claim

# The directory holding the package under test, for child processes to import
# it from whether or not PYTHONPATH names it.
SRC = Path(nbsopt.__file__).resolve().parents[1]


def to_scipy(a: CsrMatrix):
    """`a` as a `scipy.sparse.csr_matrix` over the same arrays, for tests that
    multiply a matrix by a vector, slice it, count its entries per row or take
    its columns; the package's CsrMatrix does none of that."""
    from scipy import sparse

    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def solver_cli_template() -> str:
    """Solver command template running the bundled `python -m nbsopt.solver_cli`."""
    return (
        f"env PYTHONPATH={shlex.quote(str(SRC))} {shlex.quote(sys.executable)}"
        " -m nbsopt.solver_cli {model} {solution} {timelimit} --gap {gap}"
    )


def solve_paper_model(inst: Instance, model: BuiltModel, config: SolveConfig) -> SolveResult:
    """The verified result of the bundled HiGHS on the paper model itself,
    with its six big-M rows per cell: the reference for the compact model
    that the in-process solve hands HiGHS."""
    from nbsopt import solver_cli
    from nbsopt.solve import _verify

    return _verify(inst, model, solver_cli.solve_mps(model, config.time_limit, config.gap))


def strict_json(text: str):
    """`text` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant: str):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def checked_round_trip(inst: Instance, result: SolveResult) -> SolveResult:
    """`result` written as `solve --out` writes it, read back as strict JSON
    as `report` reads it, and checked as `report` checks it."""
    from nbsopt import cli

    claim = cli._result_from_dict(strict_json(json.dumps(cli._result_to_dict(result, inst))), inst)
    return check_claim(inst, objective_normalizers(inst), claim, OBJECTIVE_MATCH_TOL)


class HighsNotRun(Exception):
    """Raised by a `spy_on_highs(..., run=False)` spy in place of a HiGHS run."""


def spy_on_highs(monkeypatch, run: bool = True) -> list[dict]:
    """Record what every in-process HiGHS call is given, then make the call,
    or raise HighsNotRun instead when `run` is false.

    Each entry holds the arrays `nbsopt.solver_cli` hands HiGHS: the
    objective `c`, the CSR matrix `a` that HiGHS takes row-wise, `row_lower`,
    `row_upper`, `col_lower`, `col_upper` and `integrality` (1 for an integer
    column), with the HiGHS `options` set for the call. The solver-command
    environment variable is cleared, so solves without a template run here.
    """
    from nbsopt import solver_cli
    from nbsopt.solve import SOLVER_CMD_ENV

    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    calls: list[dict] = []
    real = solver_cli._run_highs

    def spy(options, **arrays):
        calls.append({**arrays, "options": dict(options)})
        if not run:
            raise HighsNotRun
        return real(options, **arrays)

    monkeypatch.setattr(solver_cli, "_run_highs", spy)
    return calls


def record_answers(monkeypatch) -> list[tuple[BuiltModel, Answer]]:
    """Record the model and the answer of every solve that reaches
    `nbsopt.solve._verify`, where a solver's answer enters the one check."""
    solve = importlib.import_module("nbsopt.solve")  # not the package's `solve` function
    seen: list[tuple[BuiltModel, Answer]] = []
    real = solve._verify

    def verify(inst, model, answer):
        seen.append((model, answer))
        return real(inst, model, answer)

    monkeypatch.setattr(solve, "_verify", verify)
    return seen


# --- The paper model's certificate of a compact answer ----------------------------


def constraint_residuals(model: MipProblem, values: np.ndarray) -> float:
    """Largest violation of any row or column bound of `model` at `values`
    (<= 0 is feasible). Row violations are relative to 1 + |rhs|, as
    check_placement measures the budget's."""
    lhs = to_scipy(model.a) @ values
    gap = np.where(
        model.sense == SENSE_LE,
        lhs - model.rhs,
        np.where(model.sense == SENSE_GE, model.rhs - lhs, np.abs(lhs - model.rhs)),
    )
    rows = gap / (1.0 + np.abs(model.rhs))
    cols = np.maximum(model.lower - values, values - model.upper)
    return float(max(rows.max(initial=-np.inf), cols.max(initial=-np.inf)))


def certify(model: BuiltModel, values: np.ndarray, objective: float) -> str:
    """Why the paper-layout vector `values` is not a solution of `model` with
    an objective at most `objective`, or "" when it is.

    A vector that passes, lifted from an optimum of the compact model (a
    relaxation of `model`), is optimal for `model` too.
    """
    worst = constraint_residuals(model, values)
    if worst > FEAS_TOL:
        return f"a row or column bound is violated by {worst:.3g}"
    lifted = float(values @ model.c) + model.objective_constant
    if lifted > objective and not values_close(lifted, objective):
        return f"lifted objective {lifted!r} exceeds the compact {objective!r}"
    return ""


def family_rows(model: BuiltModel, tag: str) -> slice:
    """The rows of the constraint family `tag`, as a slice of `model.a`."""
    start = 0
    for block in model.constraints:
        if block.tag == tag:
            return slice(start, start + len(block.labels))
        start += len(block.labels)
    raise KeyError(tag)


def lift(model: BuiltModel, compact: BuiltModel, values: np.ndarray) -> np.ndarray:
    """The paper-layout column vector of a compact solution.

    x and lam are the compact values rounded, found by name, and the x of a
    pre-existing cell, which has no compact column, is 1. Every other column
    takes the value its rows define: z from the conv rows,
    `zbar = min(z, delta)`, `y = [z <= delta]`, zmax the largest reduced
    value (at least 0), zavg from the avg rows and f from the fairness rows,
    each row solved for its lead column, which is 0 in the vector it is read
    from.
    """
    layout = model.layout
    index = {name: k for k, name in enumerate(layout.column_names())}
    columns = [index[name] for name in compact.layout.column_names()]
    v = np.zeros(model.n_variables)
    v[columns] = np.round(values)
    v[layout.y_base : layout.lam_base] = 0.0
    v[next(b for b in model.constraints if b.tag == "pre_existing").indices] = 1.0
    a = to_scipy(model.a)

    def defined(tag: str, lhs: np.ndarray) -> np.ndarray:
        rows = family_rows(model, tag)
        return model.rhs[rows] - lhs[rows]

    # bigm4, the fourth row of each (u, cell) group, reads zbar <= delta
    z, delta = defined("conv", a @ v), model.rhs[family_rows(model, "bigm")][3::6]
    v[layout.y_base : layout.z_base] = z <= delta
    v[layout.z_base : layout.zbar_base] = z
    v[layout.zbar_base : layout.zmax_base] = np.minimum(z, delta)
    lhs = a @ v
    reduced = defined("peak", lhs).reshape(len(layout.measure_ids), layout.n_cells)
    v[layout.zmax_base : layout.zavg_base] = np.maximum(reduced.max(axis=1), 0.0)
    v[layout.zavg_base : layout.f_base] = defined("avg", lhs)
    v[layout.f_base : layout.lam_base] = defined("fairness", lhs)
    return v


def certify_compact_answer(inst: Instance, compact: BuiltModel, answer: Answer) -> str:
    """`certify` on the paper model for a compact answer, lifted into the
    paper model's columns. The paper model is built with the compact model's
    normalizers rather than computing its own, so that a solve still computes
    them once."""
    from nbsopt import model as model_module

    with mock.patch.object(model_module, "objective_normalizers", lambda inst: compact.norms):
        model = build_model(inst)
    return certify(model, lift(model, compact, answer.x), answer.objective)


# --- The compact model sliced from the paper model ----------------------------------


@dataclass(eq=False)
class SlicedModel(MipProblem):
    """`compact_model`'s problem: `columns` holds the paper-model column of
    each column, and `guarded` the guard binaries of each guarded measure."""

    columns: np.ndarray
    guarded: dict[str, int]


def impact_bounds_from_rows(model: BuiltModel) -> np.ndarray:
    """M_c per (u, cell), read from the paper model's conv rows: each source
    cell in the row adds its largest coefficient over the NBS types that may
    be newly installed there, into a (cell, window offset) array."""
    layout, a, blocks = model.layout, model.a, {b.tag: b for b in model.constraints}
    n, h = layout.n_cells, layout.height
    installable = np.ones(layout.y_base, dtype=bool)  # one per x column
    installable[blocks["forbidden"].indices] = False
    installable.reshape(-1, n)[:, blocks["pre_existing"].indices % n] = False
    first = family_rows(model, "conv").start
    bounds = np.zeros((len(layout.measure_ids), n))
    for ui, bound in enumerate(bounds):
        ptr = a.indptr[first + ui * n : first + (ui + 1) * n + 1]
        cell, col = np.repeat(np.arange(n), np.diff(ptr)), a.indices[ptr[0] : ptr[-1]]
        ok = col < layout.y_base  # x entries, not the lead z
        ok[ok] = installable[col[ok]]
        cell, src, coef = cell[ok], col[ok] % n, a.data[ptr[0] : ptr[-1]][ok]
        di, dj = src // h - cell // h, src % h - cell % h
        r = max(np.abs(di).max(initial=0), np.abs(dj).max(initial=0))
        largest = np.zeros((n, 2 * r + 1, 2 * r + 1))
        np.maximum.at(largest, (cell, di + r, dj + r), -coef)
        bound[:] = largest.sum(axis=(1, 2))
    return bounds


def compact_model(model: BuiltModel) -> SlicedModel:
    """The compact model sliced from the paper model's matrix: the reference
    for `build_compact_model`, which builds it from the instance.

    The bigm and fairness rows go, and so do the z, zavg and f columns; each
    z column is mapped onto its zbar column, the conv rows become `<=` rows
    (`=` for the unguarded cells of a guarded measure), the avg rows `<=`
    rows, and zbar is capped at delta. zavg and f leave the objective through
    the rows that define them. The x columns that the forbidden, pre_existing
    and one_type rows fix go with the forbidden and pre_existing rows: the
    fixed values move into the right-hand sides and the constant, and a row
    left with no entry goes, as does a one_type row left with one. The guard
    rows come last.
    """
    from scipy import sparse

    layout = model.layout
    a, n_rows, n_vars = to_scipy(model.a), model.n_constraints, model.n_variables
    avg, fair, conv = (family_rows(model, tag) for tag in ("avg", "fairness", "conv"))
    n_u, n = len(layout.measure_ids), layout.n_cells
    blocks = {b.tag: b for b in model.constraints}

    # c' = c - c_def @ A_def and const' = const + c_def @ rhs_def; each defined
    # column leads its row with coefficient 1, so its own cost cancels, and
    # the fairness rows' rhs is 0
    c_def = np.zeros(n_rows)
    c_def[avg] = model.c[layout.zavg_base : layout.f_base]
    c_def[fair] = model.c[layout.f_base : layout.lam_base]
    c = model.c - a.T @ c_def
    constant = model.objective_constant + float(c_def[avg] @ model.rhs[avg])

    # x is 1 on a pre-existing cell's column, and 0 on a forbidden one and on
    # every other type's column at a pre-existing cell, which its one_type
    # row pins
    on = blocks["pre_existing"].indices
    fixed = np.zeros(n_vars, dtype=bool)
    fixed[blocks["forbidden"].indices] = True
    fixed[: layout.y_base].reshape(-1, n)[:, on % n] = True
    one = np.zeros(n_vars)
    one[on] = 1.0
    shifted = model.rhs - a @ one
    constant += float(c[on].sum())

    # bigm4, the fourth row of each (u, cell) group, reads zbar <= delta
    delta = model.rhs[family_rows(model, "bigm")][3::6]
    bound = impact_bounds_from_rows(model).ravel()
    reach = np.minimum(bound, delta).reshape(n_u, n).sum(axis=1)
    guarded = reach > model.rhs[family_rows(model, "peak")].reshape(n_u, n).sum(axis=1)
    guarded_cell = np.repeat(guarded, n)  # per (u, cell), as the conv rows
    binary = guarded_cell & (bound > delta)
    binaries = binary.reshape(n_u, n).sum(axis=1)

    keep_col = ~fixed
    keep_col[layout.y_base : layout.z_base] = binary
    keep_col[layout.z_base : layout.zbar_base] = False  # z
    keep_col[layout.zavg_base : layout.lam_base] = False  # zavg and f
    columns = np.flatnonzero(keep_col)
    new_col = np.full(n_vars, -1, dtype=a.indices.dtype)
    new_col[columns] = np.arange(len(columns))
    # z sits after every x and y column and zbar after every z, so rows stay sorted
    new_col[layout.z_base : layout.zbar_base] = new_col[layout.zbar_base : layout.zmax_base]

    col = new_col[a.indices]
    entries = np.diff(np.concatenate(([0], np.cumsum(col >= 0)))[a.indptr])
    keep_row = entries > 0
    one_type = family_rows(model, "one_type")
    keep_row[one_type] = entries[one_type] > 1
    for tag in ("bigm", "fairness", "forbidden", "pre_existing"):
        keep_row[family_rows(model, tag)] = False
    sense = model.sense.copy()
    sense[conv] = np.where(guarded_cell & ~binary, SENSE_EQ, SENSE_LE)
    sense[avg] = SENSE_LE

    keep = np.repeat(keep_row, np.diff(a.indptr)) & (col >= 0)
    starts = a.indptr[np.append(np.flatnonzero(keep_row), n_rows)]
    indptr = np.concatenate(([0], np.cumsum(keep)))[starts]
    upper = model.upper[columns]
    upper[new_col[layout.zbar_base : layout.zmax_base]] = delta
    shape = (len(starts) - 1, len(columns))
    compact = sparse.csr_matrix((a.data[keep], col[keep], indptr), shape=shape)
    sense, rhs = sense[keep_row], shifted[keep_row]

    cells = np.flatnonzero(binary)
    if cells.size:
        y, zbar = new_col[layout.y_base + cells], new_col[layout.zbar_base + cells]
        slack, k = bound[cells] - delta[cells], np.arange(len(cells))
        guard_shape = (len(cells), shape[1])
        new_row = np.cumsum(keep_row) - 1
        tight = compact[new_row[conv.start + cells]] - sparse.csr_matrix(
            (slack, (k, y)), shape=guard_shape
        )
        floor = sparse.csr_matrix(
            (np.r_[delta[cells], np.ones(len(k))], (np.r_[k, k], np.r_[y, zbar])),
            shape=guard_shape,
        )
        compact = sparse.vstack([compact, tight, floor], format="csr")
        sense = np.concatenate((sense, np.full(2 * len(k), SENSE_GE)))
        rhs = np.concatenate((rhs, -slack, delta[cells]))
    return SlicedModel(
        a=compact,
        sense=sense,
        rhs=rhs,
        c=c[columns],
        objective_constant=constant,
        lower=model.lower[columns],
        upper=upper,
        is_integer=model.is_integer[columns],
        columns=columns,
        guarded={u: int(b) for u, g, b in zip(layout.measure_ids, guarded, binaries) if g},
    )


def naive_correlate(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-cell windowed sum with zero padding, written as plain loops."""
    w, h = field.shape
    kw, kh = kernel.shape
    cw, ch = kw // 2, kh // 2
    out = np.zeros((w, h))
    for i in range(w):
        for j in range(h):
            acc = 0.0
            for a in range(kw):
                for b in range(kh):
                    ii = i - cw + a
                    jj = j - ch + b
                    if 0 <= ii < w and 0 <= jj < h:
                        acc += field[ii, jj] * kernel[a, b]
            out[i, j] = acc
    return out


def flood_fill_components(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """4-connected components via BFS, sorted like the production output."""
    mask = np.asarray(mask, dtype=bool)
    w, h = mask.shape
    seen = np.zeros_like(mask)
    components = []
    for i in range(w):
        for j in range(h):
            if not mask[i, j] or seen[i, j]:
                continue
            queue = deque([(i, j)])
            seen[i, j] = True
            cells = []
            while queue:
                ci, cj = queue.popleft()
                cells.append((ci, cj))
                for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                    if 0 <= ni < w and 0 <= nj < h and mask[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        queue.append((ni, nj))
            components.append(sorted(cells))
    components.sort(key=lambda cells: cells[0])
    return components


def make_instance(
    field: np.ndarray,
    kernel: Kernel | None = None,
    fairness_kernel: Kernel | None = None,
    cost: float = 100.0,
    budget: float = 1e9,
    forbidden: set | None = None,
    pre_existing: set | None = None,
    delta: float | None = None,
    population: np.ndarray | None = None,
    clusters: dict | None = None,
    weights: ObjectiveWeights | None = None,
    resolution: float = 10.0,
) -> Instance:
    """Single-NBS single-measure instance with sensible defaults."""
    field = np.asarray(field, dtype=float)
    dims = GridDims(field.shape[0], field.shape[1], resolution)
    if kernel is None:
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
    if fairness_kernel is None:
        fairness_kernel = Kernel(np.array([[3.0]]))
    if population is None:
        population = np.full(dims.shape, 1.0 / dims.n_cells)
    if weights is None:
        weights = ObjectiveWeights(
            peak={"M": 0.25}, avg={"M": 0.25}, cost=0.25, fairness=0.25
        )
    inst = Instance(
        dims=dims,
        nbs=[NbsType("GW", "Green Wall", cost)],
        measures=[UcMeasure("M", "unit", field, delta=delta)],
        kernels={("M", "GW"): kernel},
        fairness_kernels={"GW": fairness_kernel},
        masks=Masks(
            forbidden={"GW": forbidden or set()},
            pre_existing={"GW": pre_existing or set()},
        ),
        population=population,
        budget=budget,
        weights=weights,
        clusters=clusters,
    )
    validate_instance(inst)
    return inst


def cluster_demo_instance() -> Instance:
    """Hand-built 6x6 urban-park instance with one 5-cell cluster.

    Eligible cells are a plus-shaped region around (2, 2) plus two isolated
    cells; one pre-existing park sits at (5, 0). The budget covers the cluster
    and one extra cell but not everything, so the trade-off is nontrivial.
    Decision units: 1 cluster + 2 free cells = 3.
    """
    dims = GridDims(6, 6)
    plus = {(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)}
    singles = {(0, 0), (5, 5)}
    pre = {(5, 0)}
    forbidden = {
        (i, j)
        for i in range(6)
        for j in range(6)
        if (i, j) not in plus | singles | pre
    }

    field = np.array(
        [[30.0 - abs(i - 2) - abs(j - 2) for j in range(6)] for i in range(6)]
    )
    kernels, fairness = default_kernel_set(nbs_ids=["UP"], measure_ids=[TEMP_MAX])
    cost = 37.8 * dims.resolution**2
    inst = Instance(
        dims=dims,
        nbs=[NbsType(id="UP", name="Urban Park", cost=cost)],
        measures=[UcMeasure(id=TEMP_MAX, unit="degC", field=field)],
        kernels=kernels,
        fairness_kernels=fairness,
        masks=Masks(forbidden={"UP": forbidden}, pre_existing={"UP": pre}),
        population=np.full(dims.shape, 1.0 / dims.n_cells),
        budget=6.5 * cost,
        weights=ObjectiveWeights(
            peak={TEMP_MAX: 0.25}, avg={TEMP_MAX: 0.25}, cost=0.25, fairness=0.25
        ),
        clusters=None,
    )
    inst = with_clusters(inst, partition_instance(inst, ["UP"]))
    validate_instance(inst)
    return inst


def instances_equal(a: Instance, b: Instance) -> bool:
    """Structural equality, exact on every numeric field."""
    if a.dims != b.dims or a.nbs != b.nbs or a.budget != b.budget:
        return False
    if len(a.measures) != len(b.measures):
        return False
    for ua, ub in zip(a.measures, b.measures):
        if (ua.id, ua.unit, ua.delta) != (ub.id, ub.unit, ub.delta):
            return False
        if not np.array_equal(ua.field, ub.field):
            return False
    if a.kernels != b.kernels or a.fairness_kernels != b.fairness_kernels:
        return False
    if a.masks.forbidden != b.masks.forbidden:
        return False
    if a.masks.pre_existing != b.masks.pre_existing:
        return False
    if not np.array_equal(a.population, b.population):
        return False
    if (a.weights.peak, a.weights.avg, a.weights.cost, a.weights.fairness) != (
        b.weights.peak,
        b.weights.avg,
        b.weights.cost,
        b.weights.fairness,
    ):
        return False
    return a.clusters == b.clusters


def read_matrix_csv(path: Path) -> np.ndarray:
    """A reduction CSV written by `analysis.write_matrix_csv`, as a matrix."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh)])


def variable_vector(inst: Instance, model: BuiltModel, placement: Placement) -> np.ndarray:
    """Embed a placement into the model's variable space.

    Auxiliary variables take their defining values; y takes the clamp
    witness. Useful for checking the MILP rows against engine output.
    """
    from nbsopt import engine

    layout = model.layout
    n, h = layout.n_cells, layout.height
    vals = np.zeros(model.n_variables)
    big_m = linearization_big_m(inst)
    for ti, t in enumerate(layout.nbs_ids):
        mask = placement.masks[t]
        for i in range(layout.width):
            for j in range(layout.height):
                if mask[i, j]:
                    vals[layout.x_base + ti * n + i * h + j] = 1.0
        for q, group in enumerate(layout.cluster_lists[t]):
            vals[layout.lam_offsets[t] + q] = 1.0 if mask[group[0]] else 0.0
    impact = engine.impact(inst, placement)
    for ui, (field, z, d) in enumerate(zip(inst.fields, impact, inst.deltas.tolist())):
        reduced = field - np.minimum(z, d)
        for i in range(layout.width):
            for j in range(layout.height):
                y, zbar, _ = clamp_witness(float(z[i, j]), d, float(big_m[ui]))
                vals[layout.z_base + ui * n + i * h + j] = z[i, j]
                vals[layout.zbar_base + ui * n + i * h + j] = zbar
                vals[layout.y_base + ui * n + i * h + j] = y
        vals[layout.zmax_base + ui] = max(0.0, float(reduced.max()))
        vals[layout.zavg_base + ui] = float(reduced.mean())
    f = engine.fairness(inst, placement)
    for i in range(layout.width):
        for j in range(layout.height):
            vals[layout.f_base + i * h + j] = f[i, j]
    return vals


def clamp_witness(
    z: float, delta: float, big_m: float
) -> tuple[int, float, float]:
    """Pick y and zbar satisfying the six big-M rows for a given raw impact.

    Returns (y, zbar, residual) where residual is the largest constraint
    violation; a correct linearization yields residual <= 0 up to rounding.
    """
    y = 1 if z <= delta else 0
    zbar = min(z, delta)
    residuals = (
        z - (delta + big_m * (1 - y)),
        (delta - big_m * y) - z,
        zbar - z,
        zbar - delta,
        (z - big_m * (1 - y)) - zbar,
        (delta - big_m * y) - zbar,
    )
    return y, zbar, max(residuals)

