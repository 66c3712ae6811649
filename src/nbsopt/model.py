"""Solver-agnostic MILP assembly for the placement problem.

Variables (all per instance; G = grid cells, T = NBS types, U = measures):

    x[t,i,j]  binary   NBS t installed at (i, j) (fixed 1 on pre-existing)
    y[u,i,j]  binary   1 iff the raw impact z is below the cap delta
    z[u,i,j]  >= 0     summed kernel impact of new installations
    zbar      >= 0     achieved reduction, min(z, delta) after linearization
    zmax[u]   >= 0     peak of the reduced field
    zavg[u]   >= 0     mean of the reduced field
    f[i,j]    >= 0     population-weighted accessibility
    lam[t,q]  binary   cluster q of type t used

Constraint families, in emission order: one NBS per cell; budget over newly
installed cells; forbidden fixing (x = 0); pre-existing fixing (x = 1);
cluster linking (x = lam); impact definition (windowed sums excluding
pre-existing cells, zero padded); six big-M rows per (u, i, j) encoding
zbar = min(z, delta); peak rows zmax >= a - zbar; mean rows; fairness rows.
Each family's rows are built from whole index arrays (the windowed sums
apply each kernel's offsets to the full cell grid), then every family is
stacked once into one row-sorted CSR matrix; a ConstraintBlock names a
family's rows. Row and column names are formatted only on request.

The minimized objective is the weighted sum of normalized peak, mean, and
cost terms minus the normalized total fairness. Peak and mean terms divide by
the field maximum, cost by the budget, and fairness is min-max scaled between
the pre-existing-only total and the best single-type-everywhere total.

This is the paper's model; the MPS export writes it. The in-process solve
hands HiGHS the compact model sliced from its matrix (`compact_model`), lifts
the compact optimum back into this layout (`lift`) and certifies it on these
rows (`certify`). Where the domain `zavg >= 0` can bind, the compact model
keeps it exact with per-cell guard rows on this model's y columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import engine
from .instance import Cell, Instance
from .kernels import Kernel, compute_big_m

if TYPE_CHECKING:
    from scipy import sparse

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="

FEAS_TOL = 1e-9
DEGENERATE_SCALE_TOL = 1e-12
OBJECTIVE_MATCH_TOL = 1e-6


def values_close(a: float, b: float, rel: float = OBJECTIVE_MATCH_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _grid_labels(*shape: int) -> np.ndarray:
    """Row-major index tuples over `shape`, one row per grid point."""
    return np.indices(shape).reshape(len(shape), -1).T


def _format_labels(name_format: str, labels: np.ndarray) -> list[str]:
    """`name_format.format(*row)` for every row of the integer array `labels`.

    The format's `{}` placeholders take a row's labels in order. Each
    placeholder gets a table of its preceding literal text followed by the
    digits of every label value in range; the table entries of all rows, and
    the text after the last placeholder, are laid out one name per row of one
    array and joined once.
    """
    literals = name_format.split("{}")
    parts = np.empty((len(labels), len(literals)), dtype=object)
    parts[:, -1] = literals[-1] + "\n"
    if labels.size:
        lo = int(labels.min())
        digits = [str(v) for v in range(lo, int(labels.max()) + 1)]
        for k, literal in enumerate(literals[:-1]):
            parts[:, k] = np.array([literal + d for d in digits], dtype=object)[labels[:, k] - lo]
    return "".join(parts.ravel().tolist()).split("\n")[:-1]


@dataclass(eq=False)
class ConstraintBlock:
    """One constraint family: a run of consecutive rows of `MilpModel.a`.

    `indices` is the family's slice of `a.indices`, a view, so its columns and
    coefficients are stored once, in the model's matrix. Row r's name is
    `name_format` filled with `labels[r]`.
    """

    tag: str
    name_format: str
    labels: np.ndarray
    indices: np.ndarray

    def row_names(self) -> list[str]:
        return _format_labels(self.name_format, self.labels)


def _rows(
    tag: str, name_format: str, labels: np.ndarray, counts, indices, coeffs, sense, rhs
) -> tuple:
    """A family's rows before stacking, from per-row entry counts then the
    columns and coefficients row by row; counts, senses or right-hand sides
    given as a scalar, or as a pattern whose length divides the row count,
    repeat over every row."""
    n_rows = len(labels)
    counts = np.asarray(counts, dtype=np.int64)
    sense = np.asarray(sense)
    rhs = np.asarray(rhs, dtype=float)
    return (
        tag,
        name_format,
        labels,
        np.tile(counts, n_rows // counts.size),
        # column indices fit int32, the type scipy keeps them in at these sizes
        np.asarray(indices, dtype=np.int32),
        np.asarray(coeffs, dtype=float),
        np.tile(sense, n_rows // sense.size),
        np.tile(rhs, n_rows // rhs.size),
    )


def _stack(families: list[tuple], n_cols: int):
    """Every family's rows, in order, as one CSR matrix with sorted columns in
    each row, with the per-row sense and right-hand side and one
    ConstraintBlock per family. Empties `families`, so each family's arrays
    are freed once stacked."""
    from scipy import sparse

    tags, formats, labels, counts, indices, coeffs, sense, rhs = zip(*families)
    families.clear()
    indptr = np.zeros(sum(map(len, labels)) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    indices = np.concatenate(indices)
    coeffs = np.concatenate(coeffs)
    a = sparse.csr_matrix((coeffs, indices, indptr), shape=(len(indptr) - 1, n_cols))
    a.sum_duplicates()  # sorted columns in each row, the form read_mps returns
    bounds = np.cumsum([0, *map(len, labels)])
    blocks = [
        ConstraintBlock(tag, name_format, rows, a.indices[a.indptr[lo] : a.indptr[hi]])
        for tag, name_format, rows, lo, hi in zip(tags, formats, labels, bounds, bounds[1:])
    ]
    return a, np.concatenate(sense), np.concatenate(rhs), blocks


@dataclass(eq=False)
class MipProblem:
    """Minimize `c @ x + objective_constant` subject to `a @ x` against `rhs`
    row by row, with the row's `sense`, and `lower <= x <= upper`, integer
    where `is_integer`.

    `a` is one CSR matrix with sorted columns in every row. The paper model,
    the compact model and a model read from MPS all extend this.
    """

    a: sparse.csr_matrix
    sense: np.ndarray
    rhs: np.ndarray
    c: np.ndarray
    objective_constant: float
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray


@dataclass(eq=False)
class MilpModel(MipProblem):
    """The paper model: `constraints` names the row families of `a` in
    order, and `norms` are the objective normalizers `c` and
    `objective_constant` were scaled with.
    """

    constraints: list[ConstraintBlock]
    layout: "VariableLayout"
    norms: "Normalizers"

    @property
    def n_variables(self) -> int:
        return len(self.lower)

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]

    def rows(self, tag: str) -> slice:
        """The rows of the constraint family `tag`, as a slice of `a`."""
        start = 0
        for block in self.constraints:
            if block.tag == tag:
                return slice(start, start + len(block.labels))
            start += len(block.labels)
        raise KeyError(tag)


class VariableLayout:
    """Bijection between (kind, coordinates) and flat column indices."""

    def __init__(self, inst: Instance):
        self.width, self.height = inst.dims.shape
        self.n_cells = inst.dims.n_cells
        self.nbs_ids = inst.nbs_ids
        self.measure_ids = inst.measure_ids
        self.cluster_lists: dict[str, list[list[Cell]]] = {
            t: inst.clusters_for(t) for t in self.nbs_ids
        }
        n, n_t, n_u = self.n_cells, len(self.nbs_ids), len(self.measure_ids)
        self.x_base = 0
        self.y_base = n_t * n
        self.z_base = self.y_base + n_u * n
        self.zbar_base = self.z_base + n_u * n
        self.zmax_base = self.zbar_base + n_u * n
        self.zavg_base = self.zmax_base + n_u
        self.f_base = self.zavg_base + n_u
        self.lam_base = self.f_base + n
        self.lam_offsets: dict[str, int] = {}
        offset = self.lam_base
        for t in self.nbs_ids:
            self.lam_offsets[t] = offset
            offset += len(self.cluster_lists[t])
        self.n_variables = offset

    def column_names(self) -> list[str]:
        """Every column's name in index order, formatted on each call by
        `_format_labels`, one kind of column at a time."""
        w, h = self.width, self.height
        n_t, n_u = len(self.nbs_ids), len(self.measure_ids)
        names: list[str] = []
        for name_format, shape in (
            ("x_t{}_i{}_j{}", (n_t, w, h)),
            ("y_u{}_i{}_j{}", (n_u, w, h)),
            ("z_u{}_i{}_j{}", (n_u, w, h)),
            ("zbar_u{}_i{}_j{}", (n_u, w, h)),
            ("zmax_u{}", (n_u,)),
            ("zavg_u{}", (n_u,)),
            ("f_i{}_j{}", (w, h)),
        ):
            names += _format_labels(name_format, _grid_labels(*shape))
        lam = [(ti, q) for ti, t in enumerate(self.nbs_ids)
               for q in range(len(self.cluster_lists[t]))]
        return names + _format_labels("lam_t{}_q{}", np.array(lam, dtype=np.int64).reshape(-1, 2))


@dataclass(frozen=True)
class Normalizers:
    """Instance-constant scale factors bringing objective terms into [0, 1]."""

    peak_scale: dict[str, float]
    cost_scale: float
    fairness_scale: float
    fairness_min: float
    fairness_max: float


def objective_normalizers(inst: Instance) -> Normalizers:
    """Compute the per-term normalization constants.

    Peak/mean terms divide by the observed field maximum, cost by the budget.
    Fairness is min-max scaled: the minimum is the pre-existing-only total,
    the maximum the best total over hypothetical solutions installing a single
    type on every cell it is not forbidden on. Degenerate scales fall back to
    one.
    """
    peak_scale: dict[str, float] = {}
    for u in inst.measures:
        m = float(np.max(u.field))
        peak_scale[u.id] = 1.0 / m if m > DEGENERATE_SCALE_TOL else 1.0
    cost_scale = 1.0 / inst.budget if inst.budget > 0 else 1.0

    f_min = float(engine.fairness(inst, engine.Placement.do_nothing(inst)).sum())
    f_max = f_min
    for t in inst.nbs_ids:
        placement = engine.Placement.empty(inst)
        placement.masks[t] = ~inst.forbidden_mask(t)
        f_max = max(f_max, float(engine.fairness(inst, placement).sum()))
    spread = f_max - f_min
    fairness_scale = 1.0 / spread if spread > DEGENERATE_SCALE_TOL else 1.0
    return Normalizers(
        peak_scale=peak_scale,
        cost_scale=cost_scale,
        fairness_scale=fairness_scale,
        fairness_min=f_min,
        fairness_max=f_max,
    )


def big_m_values(inst: Instance) -> dict[str, float]:
    """Per-measure upper bounds on the raw impact z (max kernel sum)."""
    return {
        u: compute_big_m([inst.kernel(u, t) for t in inst.nbs_ids])
        for u in inst.measure_ids
    }


def linearization_big_m(inst: Instance) -> dict[str, float]:
    """Big-M constants used in the clamp rows.

    The impact bound alone is not enough: the rows z >= delta - M*y and
    zbar >= delta - M*y must stay satisfiable at z = 0 with y = 1, which
    needs M >= delta. Take the max of both.
    """
    return {
        u: max(m, inst.delta(u)) for u, m in big_m_values(inst).items()
    }


def _kernel_offsets(kernel: Kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (di, dj, value) triplets of the nonzero kernel entries."""
    cw, ch = kernel.width // 2, kernel.height // 2
    dis, djs = np.meshgrid(
        np.arange(-cw, cw + 1), np.arange(-ch, ch + 1), indexing="ij"
    )
    vals = kernel.entries.ravel()
    keep = vals != 0.0
    return dis.ravel()[keep], djs.ravel()[keep], vals[keep]


def _windowed_rows(
    layout: VariableLayout,
    lead: np.ndarray,
    scale: np.ndarray,
    kernels: list[Kernel],
    source_ok: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry counts, columns and coefficients of one row per cell.

    Row c is `lead[c]` with coefficient 1, then, for each NBS type in order,
    `scale[c] * value` on the x column of every kernel offset whose source
    cell lies inside the grid and passes `source_ok`. Rows with zero scale
    keep only the lead entry.
    """
    n, w, h = layout.n_cells, layout.width, layout.height
    ci, cj = np.divmod(np.arange(n), h)
    cols, coefs, keep = [lead[:, None]], [np.ones((n, 1))], [np.ones((n, 1), dtype=bool)]
    for ti, (kernel, ok) in enumerate(zip(kernels, source_ok)):
        dis, djs, vals = _kernel_offsets(kernel)
        si, sj = ci[:, None] + dis, cj[:, None] + djs
        inside = (si >= 0) & (si < w) & (sj >= 0) & (sj < h)
        src = np.where(inside, si * h + sj, 0)
        cols.append(layout.x_base + ti * n + src)
        coefs.append(scale[:, None] * vals)
        keep.append(inside & ok[src] & (scale != 0.0)[:, None])
    mask = np.hstack(keep)
    return mask.sum(axis=1), np.hstack(cols)[mask], np.hstack(coefs)[mask]


def build_model(inst: Instance) -> MilpModel:
    """Assemble the full MILP for a validated instance."""
    layout = VariableLayout(inst)
    norms = objective_normalizers(inst)
    big_m = linearization_big_m(inst)
    ids, mids = layout.nbs_ids, layout.measure_ids
    n, n_t, n_u = layout.n_cells, len(ids), len(mids)
    n_vars = layout.n_variables

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    is_integer = np.zeros(n_vars, dtype=bool)
    # x and y are adjacent, lam comes last
    for lo, hi in ((layout.x_base, layout.z_base), (layout.lam_base, n_vars)):
        upper[lo:hi] = 1.0
        is_integer[lo:hi] = True

    cells = _grid_labels(layout.width, layout.height)  # (i, j) per cell
    unit_cells = np.arange(n_u * n)  # (u, cell) pairs, measure-major
    unit_labels = _grid_labels(n_u, layout.width, layout.height)
    not_pre = [~inst.pre_mask(t).ravel() for t in ids]
    # x columns of cells that are not pre-existing: they carry cost
    new_cols = [layout.x_base + ti * n + np.flatnonzero(ok) for ti, ok in enumerate(not_pre)]
    costs = [inst.nbs_by_id(t).cost for t in ids]
    families: list[tuple] = []

    # One NBS type per cell.
    families.append(_rows(
        "one_type", "one_type_i{}_j{}", cells, n_t,
        (np.arange(n)[:, None] + layout.x_base + n * np.arange(n_t)).ravel(),
        np.ones(n * n_t), SENSE_LE, 1.0,
    ))

    # Budget over newly installed cells; pre-existing ones are cost-free.
    families.append(_rows(
        "budget", "budget", np.zeros((1, 0), dtype=np.int64), sum(map(len, new_cols)),
        np.concatenate(new_cols), np.repeat(costs, list(map(len, new_cols))),
        SENSE_LE, inst.budget,
    ))

    # Fix forbidden cells off and pre-existing cells on.
    for tag, prefix, mask_of, value in (
        ("forbidden", "forbid", inst.forbidden_mask, 0.0),
        ("pre_existing", "pre", inst.pre_mask, 1.0),
    ):
        ti, cell = np.nonzero(np.stack([mask_of(t).ravel() for t in ids]))
        families.append(_rows(
            tag, prefix + "_t{}_i{}_j{}", np.column_stack((ti, cells[cell])), 1,
            layout.x_base + ti * n + cell, np.ones(len(cell)), SENSE_EQ, value,
        ))

    # Cluster linking: every cell of a cluster equals its lambda.
    link = np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [
        np.column_stack((np.full(len(group), ti), np.full(len(group), q), group))
        for ti, t in enumerate(ids)
        for q, group in enumerate(layout.cluster_lists[t])
    ])  # (ti, q, i, j) per linked cell
    lam_base = np.array([layout.lam_offsets[t] for t in ids], dtype=np.int64)
    link_x = layout.x_base + link[:, 0] * n + link[:, 2] * layout.height + link[:, 3]
    families.append(_rows(
        "cluster", "link_t{}_q{}_i{}_j{}", link, 2,
        np.column_stack((link_x, lam_base[link[:, 0]] + link[:, 1])).ravel(),
        np.tile([1.0, -1.0], len(link)), SENSE_EQ, 0.0,
    ))

    # Impact definition: z minus the windowed sums of new installations.
    conv = [
        _windowed_rows(
            layout, layout.z_base + ui * n + np.arange(n), np.full(n, -1.0),
            [inst.kernel(u, t) for t in ids], not_pre,
        )
        for ui, u in enumerate(mids)
    ]
    families.append(_rows(
        "conv", "conv_u{}_i{}_j{}", unit_labels, *map(np.concatenate, zip(*conv)),
        SENSE_EQ, 0.0,
    ))
    del conv

    # Big-M linearization of zbar = min(z, delta); y = 1 marks z <= delta.
    # Six rows per (u, cell), interleaved: bigm1 .. bigm6.
    z = layout.z_base + unit_cells
    zb = layout.zbar_base + unit_cells
    y = layout.y_base + unit_cells
    d = np.repeat([inst.delta(u) for u in mids], n)
    m = np.repeat([big_m[u] for u in mids], n)
    one = np.ones(n_u * n)
    k = np.tile(np.arange(1, 7), n_u * n)
    families.append(_rows(
        "bigm", "bigm{}_u{}_i{}_j{}", np.column_stack((k, np.repeat(unit_labels, 6, axis=0))),
        [2, 2, 2, 1, 3, 2],
        np.column_stack((z, y, z, y, zb, z, zb, zb, z, y, zb, y)).ravel(),
        np.column_stack((one, m, one, m, one, -one, one, one, -one, -m, one, m)).ravel(),
        [SENSE_LE, SENSE_GE, SENSE_LE, SENSE_LE, SENSE_GE, SENSE_GE],
        np.column_stack((d + m, d, np.zeros(n_u * n), d, -m, d)).ravel(),
    ))

    # Peak rows: zmax dominates every reduced value.
    fields = [inst.measure_by_id(u).field for u in mids]
    families.append(_rows(
        "peak", "peak_u{}_i{}_j{}", unit_labels, 2,
        np.column_stack((layout.zmax_base + unit_cells // n, zb)).ravel(),
        np.ones(2 * n_u * n), SENSE_GE, np.concatenate([a.ravel() for a in fields]),
    ))

    # Mean rows: zavg equals the average reduced value.
    families.append(_rows(
        "avg", "avg_u{}", np.arange(n_u)[:, None], n + 1,
        np.column_stack((layout.zavg_base + np.arange(n_u), zb.reshape(n_u, n))).ravel(),
        np.tile(np.r_[1.0, np.full(n, 1.0 / n)], n_u), SENSE_EQ,
        [float(a.mean()) for a in fields],
    ))

    # Fairness rows: f equals the population-weighted accessibility sum.
    counts, cols, coefs = _windowed_rows(
        layout, layout.f_base + np.arange(n), -inst.population.ravel(),
        [inst.fairness_kernels[t] for t in ids], [np.ones(n, dtype=bool)] * n_t,
    )
    families.append(_rows(
        "fairness", "fair_i{}_j{}", cells, counts, cols, coefs, SENSE_EQ, 0.0
    ))

    # Objective: weighted normalized peak + mean + cost - fairness.
    c = np.zeros(n_vars)
    for ui, u in enumerate(mids):
        c[layout.zmax_base + ui] = inst.weights.peak[u] * norms.peak_scale[u]
        c[layout.zavg_base + ui] = inst.weights.avg[u] * norms.peak_scale[u]
    for cols, cost in zip(new_cols, costs):
        c[cols] = inst.weights.cost * cost * norms.cost_scale
    wf = inst.weights.fairness * norms.fairness_scale
    c[layout.f_base : layout.lam_base] = -wf

    a, sense, rhs, blocks = _stack(families, n_vars)
    return MilpModel(
        a=a,
        sense=sense,
        rhs=rhs,
        c=c,
        objective_constant=wf * norms.fairness_min,
        lower=lower,
        upper=upper,
        is_integer=is_integer,
        constraints=blocks,
        layout=layout,
        norms=norms,
    )


def expected_variable_count(inst: Instance) -> int:
    """Closed-form column count: |G||T| + 3|G||U| + 2|U| + |G| + sum |Q^t|."""
    n = inst.dims.n_cells
    n_t = len(inst.nbs)
    n_u = len(inst.measures)
    n_clusters = sum(len(inst.clusters_for(t)) for t in inst.nbs_ids)
    return n * n_t + 3 * n * n_u + 2 * n_u + n + n_clusters


# --- Compact solve model -------------------------------------------------------


@dataclass(eq=False)
class CompactModel(MipProblem):
    """The model the in-process solve hands HiGHS, sliced from a MilpModel;
    `columns` holds the MilpModel column of each compact column, and
    `guarded` the number of guard binaries of each guarded measure.
    """

    columns: np.ndarray
    guarded: dict[str, int]


def _deltas(model: MilpModel) -> np.ndarray:
    """The cap of every zbar column: bigm4, the fourth row of each (u, cell)
    group, reads zbar <= delta."""
    return model.rhs[model.rows("bigm")][3::6]


def impact_bounds(model: MilpModel) -> np.ndarray:
    """M_c, the largest impact Kx each conv row can reach, per (u, cell).

    Each source cell in the row adds its largest coefficient over the NBS
    types that may be newly installed there: not forbidden for the type and
    not pre-existing for any, since a cell hosts one NBS at most. The
    coefficients are read from the conv rows, one measure at a time, into a
    (cell, window offset) array.
    """
    layout, a, blocks = model.layout, model.a, {b.tag: b for b in model.constraints}
    n, h = layout.n_cells, layout.height
    installable = np.ones(layout.y_base, dtype=bool)  # one per x column
    installable[blocks["forbidden"].indices] = False
    installable.reshape(-1, n)[:, blocks["pre_existing"].indices % n] = False
    first = model.rows("conv").start
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


def compact_model(model: MilpModel) -> CompactModel:
    """The paper model without its big-M rows and its defined columns, with
    the same optimum.

    The bigm and fairness rows go, and so do the z, zavg and f columns; each
    z column is mapped onto its zbar column. So the conv rows read
    `zbar - Kx <= 0`, the avg rows `mean(zbar) <= mean(a)`, and zbar takes
    the cap `delta` as its upper bound. zavg and f leave the objective
    through the avg and fairness rows that define them. A paper solution
    keeps its objective in the compact model.

    To keep an avg row, zbar could stay below min(Kx, delta). No placement
    needs to for a measure with sum_c min(M_c, delta) <= sum_c a_c (M_c from
    `impact_bounds`). Every other measure is guarded: a cell with
    M_c <= delta gets the conv row zbar = Kx; any other keeps its y column,
    with the rows `zbar >= Kx - (M_c - delta)(1 - y)` and
    `zbar >= delta (1 - y)` appended, the paper's bigm5 and bigm6 with a
    per-cell M.
    """
    from scipy import sparse

    layout = model.layout
    a, n_rows, n_vars = model.a, model.n_constraints, model.n_variables
    avg, fair, conv = model.rows("avg"), model.rows("fairness"), model.rows("conv")
    n_u, n = len(layout.measure_ids), layout.n_cells

    # c' = c - c_def @ A_def and const' = const + c_def @ rhs_def; each defined
    # column leads its row with coefficient 1, so its own cost cancels
    c_def = np.zeros(n_rows)
    c_def[avg] = model.c[layout.zavg_base : layout.f_base]
    c_def[fair] = model.c[layout.f_base : layout.lam_base]
    c = model.c - a.T @ c_def
    constant = model.objective_constant + float(c_def @ model.rhs)

    delta, bound = _deltas(model), impact_bounds(model).ravel()
    reach = np.minimum(bound, delta).reshape(n_u, n).sum(axis=1)
    guarded = reach > model.rhs[model.rows("peak")].reshape(n_u, n).sum(axis=1)
    guarded_cell = np.repeat(guarded, n)  # per (u, cell), as the conv rows
    binary = guarded_cell & (bound > delta)
    binaries = binary.reshape(n_u, n).sum(axis=1)

    keep_col = np.ones(n_vars, dtype=bool)
    keep_col[layout.y_base : layout.z_base] = binary
    keep_col[layout.z_base : layout.zbar_base] = False  # z
    keep_col[layout.zavg_base : layout.lam_base] = False  # zavg and f
    columns = np.flatnonzero(keep_col)
    new_col = np.full(n_vars, -1, dtype=a.indices.dtype)
    new_col[columns] = np.arange(len(columns))
    # z sits after every x and y column and zbar after every z, so rows stay sorted
    new_col[layout.z_base : layout.zbar_base] = new_col[layout.zbar_base : layout.zmax_base]

    keep_row = np.ones(n_rows, dtype=bool)
    keep_row[model.rows("bigm")] = False
    keep_row[fair] = False
    sense = model.sense.copy()
    sense[conv] = np.where(guarded_cell & ~binary, SENSE_EQ, SENSE_LE)
    sense[avg] = SENSE_LE

    col = new_col[a.indices]
    keep = np.repeat(keep_row, np.diff(a.indptr)) & (col >= 0)
    starts = a.indptr[np.append(np.flatnonzero(keep_row), n_rows)]
    indptr = np.concatenate(([0], np.cumsum(keep)))[starts]
    upper = model.upper[columns]
    upper[new_col[layout.zbar_base : layout.zmax_base]] = delta
    shape = (len(starts) - 1, len(columns))
    compact = sparse.csr_matrix((a.data[keep], col[keep], indptr), shape=shape)
    sense, rhs = sense[keep_row], model.rhs[keep_row]

    cells = np.flatnonzero(binary)
    if cells.size:  # scipy's sparse algebra costs more than a small solve
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
    return CompactModel(
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


def lift(model: MilpModel, compact: CompactModel, values: np.ndarray) -> np.ndarray:
    """The paper-layout column vector of a compact solution.

    x and lam are the compact values rounded. Every other column takes the
    value its rows define: z from the conv rows, `zbar = min(z, delta)`,
    `y = [z <= delta]`, zmax the largest reduced value (at least 0), zavg
    from the avg rows and f from the fairness rows. Each row is solved for its
    lead column, which is 0 in the vector it is read from: z from `a @ v`
    with x and lam alone set, the others from `a @ v` once y, z and zbar are
    set too.
    """
    layout = model.layout
    v = np.zeros(model.n_variables)
    v[compact.columns] = np.round(values)
    v[layout.y_base : layout.lam_base] = 0.0

    def defined(tag: str, lhs: np.ndarray) -> np.ndarray:
        rows = model.rows(tag)
        return model.rhs[rows] - lhs[rows]

    z, delta = defined("conv", model.a @ v), _deltas(model)
    v[layout.y_base : layout.z_base] = z <= delta
    v[layout.z_base : layout.zbar_base] = z
    v[layout.zbar_base : layout.zmax_base] = np.minimum(z, delta)
    lhs = model.a @ v
    reduced = defined("peak", lhs).reshape(len(layout.measure_ids), layout.n_cells)
    v[layout.zmax_base : layout.zavg_base] = np.maximum(reduced.max(axis=1), 0.0)
    v[layout.zavg_base : layout.f_base] = defined("avg", lhs)
    v[layout.f_base : layout.lam_base] = defined("fairness", lhs)
    return v


def constraint_residuals(model: MipProblem, values: np.ndarray) -> float:
    """Largest violation of any row or column bound of `model` at `values`
    (<= 0 is feasible). Row violations are relative to 1 + |rhs|, as
    check_placement measures the budget's."""
    lhs = model.a @ values
    gap = np.where(
        model.sense == SENSE_LE,
        lhs - model.rhs,
        np.where(model.sense == SENSE_GE, model.rhs - lhs, np.abs(lhs - model.rhs)),
    )
    rows = gap / (1.0 + np.abs(model.rhs))
    cols = np.maximum(model.lower - values, values - model.upper)
    return float(max(rows.max(initial=-np.inf), cols.max(initial=-np.inf)))


def certify(model: MilpModel, values: np.ndarray, objective: float) -> str:
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


# --- Placement feasibility and objective evaluation --------------------------


@dataclass(frozen=True)
class Violation:
    family: str
    message: str
    cells: tuple[Cell, ...] = ()


class InfeasiblePlacement(ValueError):
    """Placement breaks one or more constraint families."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = [f"[{v.family}] {v.message}" for v in violations]
        super().__init__("infeasible placement:\n - " + "\n - ".join(lines))


def check_placement(inst: Instance, placement: engine.Placement) -> list[Violation]:
    """Independent check of every constraint family against a placement."""
    violations: list[Violation] = []

    stack = np.zeros(inst.dims.shape, dtype=int)
    for t in inst.nbs_ids:
        stack += placement.masks[t].astype(int)
    bad = np.argwhere(stack > 1)
    if bad.size:
        cells = tuple((int(i), int(j)) for i, j in bad)
        violations.append(
            Violation("one_type", f"{len(cells)} cell(s) host more than one NBS", cells)
        )

    cost = 0.0
    for t in inst.nbs_ids:
        cost += inst.nbs_by_id(t).cost * int(placement.new_mask(inst, t).sum())
    if cost > inst.budget * (1 + FEAS_TOL) + FEAS_TOL:
        violations.append(
            Violation("budget", f"cost {cost!r} exceeds budget {inst.budget!r}")
        )

    for t in inst.nbs_ids:
        on_forbidden = placement.masks[t] & inst.forbidden_mask(t)
        bad = np.argwhere(on_forbidden)
        if bad.size:
            cells = tuple((int(i), int(j)) for i, j in bad)
            violations.append(
                Violation("forbidden", f"NBS {t!r} placed on forbidden cell(s)", cells)
            )
        missing = inst.pre_mask(t) & ~placement.masks[t]
        bad = np.argwhere(missing)
        if bad.size:
            cells = tuple((int(i), int(j)) for i, j in bad)
            violations.append(
                Violation(
                    "pre_existing", f"pre-existing NBS {t!r} cell(s) switched off", cells
                )
            )

    for t in inst.nbs_ids:
        mask = placement.masks[t]
        for q, group in enumerate(inst.clusters_for(t)):
            values = {bool(mask[i, j]) for i, j in group}
            if len(values) > 1:
                violations.append(
                    Violation(
                        "cluster",
                        f"cluster {q} of NBS {t!r} is partially used",
                        tuple(group),
                    )
                )

    # zavg is a nonnegative variable, so placements driving the mean reduced
    # value below zero are infeasible in the MILP as well.
    for u in inst.measures:
        zbar = engine.measure_reduction(inst, placement, u.id)
        if float((u.field - zbar).mean()) < -FEAS_TOL:
            violations.append(
                Violation(
                    "avg_nonneg",
                    f"mean reduced value of measure {u.id!r} is negative",
                )
            )

    return violations


@dataclass
class ObjectiveBreakdown:
    """Raw quantities and weighted normalized terms of the objective.

    `reduction` (the achieved reduction field of each measure) and
    `fairness_field` are the fields the quantities were computed from; they
    are not part of `to_dict`.
    """

    peak_value: dict[str, float]
    avg_value: dict[str, float]
    cost_value: float
    fairness_value: float
    peak_term: dict[str, float]
    avg_term: dict[str, float]
    cost_term: float
    fairness_term: float
    total: float
    reduction: dict[str, np.ndarray] = field(compare=False, repr=False)
    fairness_field: np.ndarray = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "peak_value": dict(self.peak_value),
            "avg_value": dict(self.avg_value),
            "cost_value": self.cost_value,
            "fairness_value": self.fairness_value,
            "peak_term": dict(self.peak_term),
            "avg_term": dict(self.avg_term),
            "cost_term": self.cost_term,
            "fairness_term": self.fairness_term,
        }


def evaluate_solution(
    inst: Instance,
    placement: engine.Placement,
    norms: Normalizers | None = None,
    check: bool = True,
) -> ObjectiveBreakdown:
    """Objective value of a placement, computed directly from the fields.

    Uses the same normalizers and term structure as build_model, with no MILP
    involved, so it doubles as the independent evaluation for the enumeration
    oracle and for verifying solver output. `norms` are computed from the
    instance when not given; callers holding a model pass its `norms`, the
    ones its objective was built with. The breakdown keeps the reduction and
    fairness fields, so the report does not compute them again.
    """
    if check:
        violations = check_placement(inst, placement)
        if violations:
            raise InfeasiblePlacement(violations)
    if norms is None:
        norms = objective_normalizers(inst)

    peak_value: dict[str, float] = {}
    avg_value: dict[str, float] = {}
    peak_term: dict[str, float] = {}
    avg_term: dict[str, float] = {}
    reduction: dict[str, np.ndarray] = {}
    total = 0.0
    for u in inst.measures:
        zbar = reduction[u.id] = engine.measure_reduction(inst, placement, u.id)
        reduced = u.field - zbar
        # zmax/zavg live in R+, so the solver can never report below zero.
        peak_value[u.id] = max(0.0, float(reduced.max()))
        avg_value[u.id] = float(reduced.mean())
        peak_term[u.id] = inst.weights.peak[u.id] * norms.peak_scale[u.id] * peak_value[u.id]
        avg_term[u.id] = inst.weights.avg[u.id] * norms.peak_scale[u.id] * avg_value[u.id]
        total += peak_term[u.id] + avg_term[u.id]

    cost_value = 0.0
    for t in inst.nbs_ids:
        cost_value += inst.nbs_by_id(t).cost * int(placement.new_mask(inst, t).sum())
    cost_term = inst.weights.cost * norms.cost_scale * cost_value
    total += cost_term

    fairness_field = engine.fairness(inst, placement)
    fairness_value = float(fairness_field.sum())
    fairness_term = (
        -inst.weights.fairness * norms.fairness_scale * (fairness_value - norms.fairness_min)
    )
    total += fairness_term

    return ObjectiveBreakdown(
        peak_value=peak_value,
        avg_value=avg_value,
        cost_value=cost_value,
        fairness_value=fairness_value,
        peak_term=peak_term,
        avg_term=avg_term,
        cost_term=cost_term,
        fairness_term=fairness_term,
        total=total,
        reduction=reduction,
        fairness_field=fairness_field,
    )
