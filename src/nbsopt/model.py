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
Each family has one row builder, which builds its rows from whole index
arrays (the windowed sums apply each kernel's offsets to the full cell grid)
and emits each row's entries in increasing column order; the families are
concatenated once into one CsrMatrix, a compressed sparse row matrix over
numpy arrays, and a ConstraintBlock names a family's rows. Row and column
names are formatted only on request.

The minimized objective is the weighted sum of normalized peak, mean, and
cost terms minus the normalized total fairness. Peak and mean terms divide by
the field maximum, cost by the budget, and fairness is min-max scaled between
the pre-existing-only total and the best single-type-everywhere total.
The rows, normalizers and big-M constants read the measures' fields and
deltas from the instance's arrays (`Instance.fields`, `Instance.deltas`), in
measure order, and the check and the evaluation take `engine.reduction`'s
array; measure ids key only the kernels, the weights and the files.

Two models share the row builders and differ only in data, both BuiltModels:
the paper model (`build_model`), which `nbsopt build` writes as MPS, and the
compact model every solve hands its solver (`build_compact_model`), with x
columns only for the eligible (type, cell) pairs, no forbidden, pre-existing,
big-M or fairness rows, no z, zavg or f columns, and y columns only for its
guard cells. Each model's VariableLayout places and names its columns from
one table of column kinds, and its x columns from a table of (type, cell)
pairs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .instance import Cell, Instance
from .kernels import Kernel, compute_big_m

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="

FEAS_TOL = 1e-9
DEGENERATE_SCALE_TOL = 1e-12
OBJECTIVE_MATCH_TOL = 1e-6


def values_close(a: float, b: float, rel: float = OBJECTIVE_MATCH_TOL) -> bool:
    """Whether `a` and `b` are finite and within `rel` * max(1, |a|, |b|) of each other."""
    return math.isfinite(a - b) and abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _grid_labels(*shape: int) -> np.ndarray:
    """Row-major index tuples over `shape`, one row per grid point."""
    return np.indices(shape).reshape(len(shape), -1).T


def _format_labels(name_format: str, labels: np.ndarray, prefix: str = "") -> list[str]:
    """`prefix + name_format.format(*row)` for every row of the integer array
    `labels`.

    The format's `{}` placeholders take a row's labels in order. Each
    placeholder gets a table of its preceding literal text (the first with
    `prefix` before it) followed by the digits of every label value in range;
    the table entries of all rows, and the text after the last placeholder,
    are laid out one name per row of one array and joined once. The MPS
    writer passes a space as `prefix`, so its names need no second copy.
    """
    literals = (prefix + name_format).split("{}")
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
    """One constraint family: a run of consecutive rows of `BuiltModel.a`.

    `indices` is the family's slice of `a.indices`, a view, so its columns and
    coefficients are stored once, in the model's matrix. Row r's name is
    `name_format` filled with `labels[r]`.
    """

    tag: str
    name_format: str
    labels: np.ndarray
    indices: np.ndarray

    def row_names(self, prefix: str = "") -> list[str]:
        return _format_labels(self.name_format, self.labels, prefix)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in compressed sparse row form, the form HiGHS takes as
    its row-wise matrix: row r holds the coefficients
    `data[indptr[r] : indptr[r + 1]]` in the columns
    `indices[indptr[r] : indptr[r + 1]]`, increasing, none repeated."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_rows(cls, counts: np.ndarray, indices: np.ndarray, data: np.ndarray,
                  n_cols: int) -> CsrMatrix:
        """The matrix whose row r holds the next `counts[r]` entries of
        `indices` and `data`, which are already in column order."""
        # 32-bit indices where they fit, the type HiGHS takes them in
        index = np.int32 if max(len(indices), n_cols) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(len(counts) + 1, dtype=index)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices.astype(index, copy=False), data, (len(counts), n_cols))

    @property
    def nnz(self) -> int:
        return len(self.data)


# A family's rows before stacking: per-row entry counts, then the columns and
# coefficients row by row, with each row's sense and right-hand side.
_Family = namedtuple("_Family", "tag name_format labels counts indices coeffs sense rhs")


def _rows(
    tag: str, name_format: str, labels: np.ndarray, counts, indices, coeffs, sense, rhs
) -> _Family:
    """A family's rows before stacking, from per-row entry counts then the
    columns and coefficients row by row; counts, senses or right-hand sides
    given as a scalar repeat over every row."""
    n_rows = len(labels)

    def per_row(values: np.ndarray) -> np.ndarray:
        return values if values.shape == (n_rows,) else values.repeat(n_rows)

    return _Family(
        tag,
        name_format,
        labels,
        per_row(np.asarray(counts, dtype=np.int64)),
        # column indices fit int32, the type HiGHS takes them in at these sizes
        np.asarray(indices, dtype=np.int32),
        np.asarray(coeffs, dtype=float),
        per_row(np.asarray(sense)),
        per_row(np.asarray(rhs, dtype=float)),
    )


def _stack(families: list[_Family], n_cols: int):
    """Every family's rows, in order, as one CsrMatrix, with the per-row
    sense and right-hand side and one ConstraintBlock per family.

    The matrix's columns and coefficients are allocated once, and each
    family's are copied in and dropped from `families` in turn, so no family
    outlives its copy and no second copy of the whole matrix is made. The
    row builders emit each row's entries in increasing column order, so the
    rows are only stacked. The first row whose columns do not strictly
    increase raises ValueError: naming a column it holds twice, if any, or
    else the first column out of order.
    """
    n_entries = sum(len(f.indices) for f in families)
    indices, coeffs = np.empty(n_entries, dtype=np.int32), np.empty(n_entries)
    start = 0
    for k in range(len(families)):
        end = start + len(families[k].indices)
        indices[start:end], coeffs[start:end] = families[k].indices, families[k].coeffs
        families[k] = families[k]._replace(indices=indices[start:end], coeffs=coeffs[start:end])
        start = end
    tags, formats, labels, counts, _, _, sense, rhs = zip(*families)
    families.clear()
    a = CsrMatrix.from_rows(np.concatenate(counts), indices, coeffs, n_cols)
    bounds = np.cumsum([0, *map(len, labels)])
    for lo, hi in zip(bounds, bounds[1:]):  # one family's rows at a time
        first, last = a.indptr[lo], a.indptr[hi]
        if last - first < 2:
            continue
        unordered = a.indices[first + 1 : last] <= a.indices[first : last - 1]
        starts = a.indptr[lo + 1 : hi] - first
        unordered[starts[(starts > 0) & (starts < last - first)] - 1] = False  # across a row start
        if unordered.any():
            at = first + int(np.argmax(unordered)) + 1
            row = int(np.searchsorted(a.indptr, at, side="right")) - 1
            columns = np.sort(a.indices[a.indptr[row] : a.indptr[row + 1]])
            twice = columns[1:][columns[1:] == columns[:-1]]
            if twice.size:
                raise ValueError(f"row {row} has two entries in column {twice[0]}")
            raise ValueError(f"row {row} is not in column order at column {a.indices[at]}")
    blocks = [
        ConstraintBlock(tag, name_format, rows, a.indices[a.indptr[lo] : a.indptr[hi]])
        for tag, name_format, rows, lo, hi in zip(tags, formats, labels, bounds, bounds[1:])
    ]
    return a, np.concatenate(sense), np.concatenate(rhs), blocks


@dataclass(eq=False)
class MipProblem:
    """Minimize `c @ x + objective_constant` subject to `a @ x` against `rhs`
    row by row, with the row's `sense`, and `lower <= x <= upper`, integer
    where `is_integer`, with `a` one CsrMatrix.

    The paper model, the compact model and a model read from MPS all extend
    this.
    """

    a: CsrMatrix
    sense: np.ndarray
    rhs: np.ndarray
    c: np.ndarray
    objective_constant: float
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray


@dataclass(eq=False)
class BuiltModel(MipProblem):
    """A model built from an instance, the paper or the compact one:
    `constraints` names the row families of `a` in order, `layout` places its
    columns, `norms` are the objective normalizers `c` and `objective_constant`
    were scaled with, and `guarded` holds the number of guard binaries of each
    guarded measure (none in the paper model)."""

    constraints: list[ConstraintBlock]
    layout: "VariableLayout"
    norms: "Normalizers"
    guarded: dict[str, int]

    @property
    def n_variables(self) -> int:
        return len(self.lower)

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]


class VariableLayout:
    """Bijection between (kind, coordinates) and flat column indices, from
    `kinds`: each kind of column (x, y, z, zbar, zmax, zavg, f, lam) in index
    order, as its name format and one row of labels per column. With
    `guard_cells` given (per guard cell, a (measure, cell) pair, measure-major,
    as a flat index), the compact model's: x only for the eligible (type,
    cell) pairs, y only for the guard cells, and no z, zavg or f column.

    `x_pairs` holds the (type, cell) pair of each x column, as the flat index
    `type * n_cells + cell`, and `x_column` the x column of each pair, per
    type and cell, -1 for a pair with none; the paper model has every pair.
    """

    def __init__(self, inst: Instance, guard_cells: np.ndarray | None = None):
        self.width, self.height = inst.dims.shape
        self.n_cells = inst.dims.n_cells
        self.nbs_ids = inst.nbs_ids
        self.measure_ids = inst.measure_ids
        self.cluster_lists: dict[str, list[list[Cell]]] = {
            t: inst.clusters_for(t) for t in self.nbs_ids
        }
        self.guard_cells = guard_cells
        w, h, n_u, n_t = self.width, self.height, len(self.measure_ids), len(self.nbs_ids)
        units = _grid_labels(n_u, w, h)  # (u, i, j), measure-major
        measures = _grid_labels(n_u)
        paper = guard_cells is None
        defined = slice(None) if paper else slice(0)  # the z, zavg and f columns
        pairs = _grid_labels(n_t, w, h)  # (t, i, j), type-major
        # a forbidden or pre-existing pair's x is fixed, so the compact model
        # leaves it out
        self.x_pairs = np.arange(len(pairs)) if paper else np.flatnonzero(inst.eligible)
        lam = [(ti, q) for ti, t in enumerate(self.nbs_ids)
               for q in range(len(self.cluster_lists[t]))]
        self.kinds: list[tuple[str, np.ndarray]] = [
            ("x_t{}_i{}_j{}", pairs if paper else pairs[self.x_pairs]),
            ("y_u{}_i{}_j{}", units if paper else units[guard_cells]),
            ("z_u{}_i{}_j{}", units[defined]),
            ("zbar_u{}_i{}_j{}", units),
            ("zmax_u{}", measures),
            ("zavg_u{}", measures[defined]),
            ("f_i{}_j{}", _grid_labels(w, h)[defined]),
            ("lam_t{}_q{}", np.array(lam, dtype=np.int64).reshape(-1, 2)),
        ]
        (self.x_base, self.y_base, self.z_base, self.zbar_base, self.zmax_base,
         self.zavg_base, self.f_base, self.lam_base, self.n_variables) = np.cumsum(
            [0, *(len(labels) for _, labels in self.kinds)]).tolist()
        self.x_column = np.full(len(pairs), -1, dtype=np.int64)
        self.x_column[self.x_pairs] = self.x_base + np.arange(len(self.x_pairs))
        self.x_column = self.x_column.reshape(n_t, self.n_cells)
        clusters = np.cumsum([0, *(len(self.cluster_lists[t]) for t in self.nbs_ids)])
        self.lam_offsets: dict[str, int] = dict(
            zip(self.nbs_ids, (self.lam_base + clusters[:-1]).tolist()))

    def column_names(self, prefix: str = "") -> list[str]:
        """Every column's name in index order, each after `prefix`, formatted
        on each call by `_format_labels`, one kind of column at a time."""
        return [name for name_format, labels in self.kinds
                for name in _format_labels(name_format, labels, prefix)]


@dataclass(frozen=True)
class Normalizers:
    """Instance-constant scale factors bringing objective terms into [0, 1],
    with the fairness field of the pre-existing-only placement, whose total is
    `fairness_min`."""

    peak_scale: tuple[float, ...]
    cost_scale: float
    fairness_scale: float
    fairness_min: float
    do_nothing_fairness: np.ndarray = field(compare=False, repr=False)


def objective_normalizers(inst: Instance) -> Normalizers:
    """Compute the per-term normalization constants.

    Peak/mean terms divide by the observed field maximum, cost by the budget.
    Fairness is min-max scaled: the minimum is the pre-existing-only total,
    the maximum the best total over hypothetical solutions installing a single
    type on every cell it is not forbidden on. Degenerate scales fall back to
    one.
    """
    peak_scale = tuple(1.0 / m if m > DEGENERATE_SCALE_TOL else 1.0
                       for m in inst.fields.max(axis=(1, 2)).tolist())
    cost_scale = 1.0 / inst.budget if inst.budget > 0 else 1.0

    do_nothing = engine.fairness(inst, engine.Placement.do_nothing(inst))
    f_min = float(do_nothing.sum())
    f_max = f_min
    for t, forbidden in zip(inst.nbs_ids, inst.forbidden):
        placement = engine.Placement.empty(inst)
        placement.masks[t] = ~forbidden
        f_max = max(f_max, float(engine.fairness(inst, placement).sum()))
    spread = f_max - f_min
    fairness_scale = 1.0 / spread if spread > DEGENERATE_SCALE_TOL else 1.0
    return Normalizers(
        peak_scale=peak_scale,
        cost_scale=cost_scale,
        fairness_scale=fairness_scale,
        fairness_min=f_min,
        do_nothing_fairness=do_nothing,
    )


def linearization_big_m(inst: Instance) -> np.ndarray:
    """Big-M constants used in the clamp rows, per measure in measure order.

    The upper bound on the raw impact z (`compute_big_m`, the largest kernel
    sum) alone is not enough: the rows z >= delta - M*y and
    zbar >= delta - M*y must stay satisfiable at z = 0 with y = 1, which
    needs M >= delta. Take the max of both.
    """
    kernel_sums = [compute_big_m([inst.kernels[(u, t)] for t in inst.nbs_ids])
                   for u in inst.measure_ids]
    return np.maximum(kernel_sums, inst.deltas)


def _window(w: int, h: int, kernel: Kernel, ok: np.ndarray):
    """A kernel's windows on a w x h grid: per cell (row) and nonzero kernel
    entry (column, row-major), whether the entry's source cell lies inside
    the grid and passes `ok` (one flag per cell), with the entries' offsets
    and values. The flags are read through a sliding window over `ok`
    padded with False, so the mask is the only (cell, entry) array made."""
    a, b = np.nonzero(kernel.entries)
    kw, kh = kernel.entries.shape
    padded = np.zeros((w + kw - 1, h + kh - 1), dtype=bool)
    padded[kw // 2 : kw // 2 + w, kh // 2 : kh // 2 + h] = ok.reshape(w, h)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kw, kh))
    return (windows[:, :, a, b].reshape(w * h, len(a)), a - kw // 2, b - kh // 2,
            kernel.entries[a, b])


def impact_bounds(inst: Instance, measures: np.ndarray) -> np.ndarray:
    """M_c, the largest impact Kx can reach at each cell, per (measure, cell)
    in measure order, for the measures where the mask `measures` is set, and
    0 for the others.

    Each source cell in the cell's window adds its largest kernel entry over
    the NBS types that may be newly installed there (`Instance.eligible`). One
    measure at a time, the entries go into a (cell, window offset) array as
    wide as the farthest such offset, summed per cell.
    """
    n, (w, h) = inst.dims.n_cells, inst.dims.shape
    ids = inst.measure_ids
    bounds = np.zeros((len(ids), n))
    for ui in np.flatnonzero(measures):
        entries = []  # (cell, di, dj, value) of every installable source
        for t, ok in zip(inst.nbs_ids, inst.eligible):
            inside, di, dj, vals = _window(w, h, inst.kernels[(ids[ui], t)], ok)
            cell, k = np.nonzero(inside)
            entries.append((cell, di[k], dj[k], vals[k]))
        cell, di, dj, vals = map(np.concatenate, zip(*entries))
        r = max(np.abs(di).max(initial=0), np.abs(dj).max(initial=0))
        largest = np.zeros((n, 2 * r + 1, 2 * r + 1))
        np.maximum.at(largest, (cell, di + r, dj + r), vals)
        bounds[ui] = largest.sum(axis=(1, 2))
    return bounds


def _windowed_rows(
    layout: VariableLayout,
    x_column: np.ndarray,
    lead: np.ndarray | None,
    scale: np.ndarray,
    kernels: list[Kernel],
    source_ok: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry counts, columns and coefficients of one row per cell, in column
    order.

    Row c holds, for each NBS type in order, `scale[c] * value` on the
    column `x_column` gives the (type, source cell) pair of every kernel
    offset whose source cell lies inside the grid and passes `source_ok`,
    then `lead[c]`, a column after every such column, with coefficient 1 (no
    lead entry when `lead` is None). Rows with zero scale keep only the lead
    entry.

    One boolean mask over (cell, kernel entry of every type, then the lead)
    is the only array that size; the columns and coefficients are computed
    for its kept entries alone, in row-major order: the entry k kept in row
    c reads `x_column` at the flat (type, cell) index `c + shift[k]`, with
    `shift = type * n_cells + di * height + dj`.
    """
    n, h = layout.n_cells, layout.height
    nonzero = (scale != 0.0)[:, None]
    keep, shift, value = [], [], []
    for ti, (kernel, ok) in enumerate(zip(kernels, source_ok)):
        inside, di, dj, vals = _window(layout.width, h, kernel, ok)
        keep.append(inside & nonzero)
        shift.append(ti * n + di * h + dj)
        value.append(vals)
    if lead is not None:  # shift 0 reads a valid column, replaced below
        keep.append(np.ones((n, 1), dtype=bool))
        shift.append(np.zeros(1, dtype=np.int64))
        value.append(np.ones(1))
    keep = np.hstack(keep)
    row, k = np.nonzero(keep)
    columns = x_column.astype(np.int32).ravel()[row + np.concatenate(shift)[k]]
    coefs = scale[row] * np.concatenate(value)[k]
    counts = keep.sum(axis=1)
    if lead is not None:
        last = np.cumsum(counts) - 1
        columns[last], coefs[last] = lead, 1.0
    return counts, columns, coefs


# --- Row families ----------------------------------------------------------------


def _not_pre(inst: Instance, layout: VariableLayout) -> np.ndarray:
    """Per (type, cell) pair, whether the pair has an x column and its cell
    is not pre-existing: the x columns that carry cost and impact."""
    return (layout.x_column >= 0) & ~inst.pre_existing.reshape(layout.x_column.shape)


def _shared_rows(inst: Instance, layout: VariableLayout) -> list[_Family]:
    """The one_type, budget, forbidden, pre_existing and cluster rows. The
    compact model has no x column for a fixed pair, so it has no forbidden or
    pre_existing rows, no budget row that would hold no entry, and a one_type
    row only where two or more types have an x column: a row over one column
    restates that column's bound."""
    ids, x = layout.nbs_ids, layout.x_column
    paper = layout.guard_cells is None
    cells = _grid_labels(layout.width, layout.height)  # (i, j) per cell
    families: list[_Family] = []

    # One NBS type per cell.
    has = x.T >= 0  # per cell, the types with an x column there
    rows = slice(None) if paper else has.sum(axis=1) > 1
    counts = has[rows].sum(axis=1)
    families.append(_rows(
        "one_type", "one_type_i{}_j{}", cells[rows], counts, x.T[rows][has[rows]],
        np.ones(int(counts.sum())), SENSE_LE, 1.0,
    ))

    # Budget over newly installed cells; pre-existing ones are cost-free.
    new = _not_pre(inst, layout)
    if paper or new.any():
        costs = np.array([t.cost for t in inst.nbs])
        families.append(_rows(
            "budget", "budget", np.zeros((1, 0), dtype=np.int64), int(new.sum()), x[new],
            np.repeat(costs, new.sum(axis=1)), SENSE_LE, inst.budget,
        ))

    # The paper model fixes forbidden cells off and pre-existing cells on.
    for tag, prefix, grids, value in (
        ("forbidden", "forbid", inst.forbidden, 0.0),
        ("pre_existing", "pre", inst.pre_existing, 1.0),
    ) if paper else ():
        ti, cell = np.nonzero(grids.reshape(x.shape))
        families.append(_rows(
            tag, prefix + "_t{}_i{}_j{}", np.column_stack((ti, cells[cell])), 1,
            x[ti, cell], np.ones(len(cell)), SENSE_EQ, value,
        ))

    # Cluster linking: every cell of a cluster equals its lambda.
    link = np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [
        np.column_stack((np.full(len(group), ti), np.full(len(group), q), group))
        for ti, t in enumerate(ids)
        for q, group in enumerate(layout.cluster_lists[t])
    ])  # (ti, q, i, j) per linked cell
    lam_base = np.array([layout.lam_offsets[t] for t in ids], dtype=np.int64)
    link_x = x[link[:, 0], link[:, 2] * layout.height + link[:, 3]]
    families.append(_rows(
        "cluster", "link_t{}_q{}_i{}_j{}", link, 2,
        np.column_stack((link_x, lam_base[link[:, 0]] + link[:, 1])).ravel(),
        np.tile([1.0, -1.0], len(link)), SENSE_EQ, 0.0,
    ))
    return families


def _unit_labels(layout: VariableLayout) -> np.ndarray:
    """(u, i, j) per (measure, cell) pair, measure-major."""
    return _grid_labels(len(layout.measure_ids), layout.width, layout.height)


def _conv_rows(inst: Instance, layout: VariableLayout, lead_base: int, sense) -> _Family:
    """Impact rows: per (measure, cell), the lead column (z in the paper model,
    zbar in the compact one) minus the windowed sums of new installations,
    the lead entry last."""
    n = layout.n_cells
    new = _not_pre(inst, layout)
    conv = [
        _windowed_rows(
            layout, layout.x_column, lead_base + ui * n + np.arange(n), np.full(n, -1.0),
            [inst.kernels[(u, t)] for t in layout.nbs_ids], new,
        )
        for ui, u in enumerate(layout.measure_ids)
    ]
    return _rows(
        "conv", "conv_u{}_i{}_j{}", _unit_labels(layout), *map(np.concatenate, zip(*conv)),
        sense, 0.0,
    )


def _peak_rows(inst: Instance, layout: VariableLayout) -> _Family:
    """Peak rows: zmax dominates every reduced value."""
    n, n_u = layout.n_cells, len(layout.measure_ids)
    unit_cells = np.arange(n_u * n)
    zmax, zbar = layout.zmax_base + unit_cells // n, layout.zbar_base + unit_cells
    return _rows(
        "peak", "peak_u{}_i{}_j{}", _unit_labels(layout), 2,
        np.column_stack((zbar, zmax)).ravel(), np.ones(2 * n_u * n), SENSE_GE,
        inst.fields.ravel(),
    )


def _avg_rows(inst: Instance, layout: VariableLayout, zavg: bool) -> _Family:
    """Mean rows: zavg equals the average reduced value (`zavg`, the paper
    model), or the average reduced value is at least 0 (the compact model)."""
    n, n_u = layout.n_cells, len(layout.measure_ids)
    cols = layout.zbar_base + np.arange(n_u * n).reshape(n_u, n)
    coefs = np.full((n_u, n), 1.0 / n)
    if zavg:
        cols = np.column_stack((cols, layout.zavg_base + np.arange(n_u)))
        coefs = np.column_stack((coefs, np.ones(n_u)))
    return _rows(
        "avg", "avg_u{}", np.arange(n_u)[:, None], cols.shape[1], cols.ravel(), coefs.ravel(),
        SENSE_EQ if zavg else SENSE_LE, inst.fields.mean(axis=(1, 2)),
    )


def _fairness_entries(inst: Instance, layout: VariableLayout, x_column: np.ndarray,
                      source_ok: np.ndarray, lead: np.ndarray | None):
    """Per cell, the f column `lead` minus the population-weighted
    accessibility, on the columns `x_column` gives the (type, cell) pairs
    that pass `source_ok`."""
    kernels = [inst.fairness_kernels[t] for t in layout.nbs_ids]
    return _windowed_rows(layout, x_column, lead, -inst.population.ravel(), kernels, source_ok)


def _objective(inst: Instance, layout: VariableLayout, norms: Normalizers):
    """The objective on the x and zmax columns, with the costs of the zavg
    columns and the fairness weight `wf`, each f column's cost being `-wf`."""
    c, w, mids = np.zeros(layout.n_variables), inst.weights, layout.measure_ids
    c[layout.zmax_base : layout.zavg_base] = [
        w.peak[u] * scale for u, scale in zip(mids, norms.peak_scale)]
    weighted = [w.cost * t.cost * norms.cost_scale for t in inst.nbs]
    # pre-existing cells are cost-free
    pair_cost = np.where(_not_pre(inst, layout), np.array(weighted)[:, None], 0.0)
    c[layout.x_base : layout.y_base] = pair_cost.ravel()[layout.x_pairs]
    czavg = np.array([w.avg[u] * scale for u, scale in zip(mids, norms.peak_scale)])
    return c, czavg, w.fairness * norms.fairness_scale


# --- Paper model -----------------------------------------------------------------


def build_model(inst: Instance) -> BuiltModel:
    """Assemble the paper's MILP for a validated instance."""
    layout = VariableLayout(inst)
    norms = objective_normalizers(inst)
    n, n_u = layout.n_cells, len(layout.measure_ids)
    n_vars = layout.n_variables

    upper = np.full(n_vars, np.inf)
    is_integer = np.zeros(n_vars, dtype=bool)
    # x and y are adjacent, lam comes last
    for lo, hi in ((layout.x_base, layout.z_base), (layout.lam_base, n_vars)):
        upper[lo:hi] = 1.0
        is_integer[lo:hi] = True

    families = _shared_rows(inst, layout)
    families.append(_conv_rows(inst, layout, layout.z_base, SENSE_EQ))

    # Big-M linearization of zbar = min(z, delta); y = 1 marks z <= delta.
    # Six rows per (u, cell), interleaved: bigm1 .. bigm6, each in (y, z, zbar)
    # column order.
    unit_cells = np.arange(n_u * n)  # (u, cell) pairs, measure-major
    z = layout.z_base + unit_cells
    zb = layout.zbar_base + unit_cells
    y = layout.y_base + unit_cells
    d = np.repeat(inst.deltas, n)
    m = np.repeat(linearization_big_m(inst), n)
    one = np.ones(n_u * n)
    k = np.tile(np.arange(1, 7), n_u * n)
    families.append(_rows(
        "bigm", "bigm{}_u{}_i{}_j{}",
        np.column_stack((k, np.repeat(_unit_labels(layout), 6, axis=0))),
        np.tile([2, 2, 2, 1, 3, 2], n_u * n),
        np.column_stack((y, z, y, z, z, zb, zb, y, z, zb, y, zb)).ravel(),
        np.column_stack((m, one, m, one, -one, one, one, -m, -one, one, m, one)).ravel(),
        np.tile([SENSE_LE, SENSE_GE, SENSE_LE, SENSE_LE, SENSE_GE, SENSE_GE], n_u * n),
        np.column_stack((d + m, d, np.zeros(n_u * n), d, -m, d)).ravel(),
    ))

    families.append(_peak_rows(inst, layout))
    families.append(_avg_rows(inst, layout, zavg=True))

    # Fairness rows: f equals the population-weighted accessibility sum.
    families.append(_rows(
        "fairness", "fair_i{}_j{}", _grid_labels(layout.width, layout.height),
        *_fairness_entries(inst, layout, layout.x_column, np.ones(layout.x_column.shape, bool),
                           layout.f_base + np.arange(n)), SENSE_EQ, 0.0,
    ))

    # Objective: weighted normalized peak + mean + cost - fairness.
    c, czavg, wf = _objective(inst, layout, norms)
    c[layout.zavg_base : layout.f_base] = czavg
    c[layout.f_base : layout.lam_base] = -wf

    a, sense, rhs, blocks = _stack(families, n_vars)
    return BuiltModel(
        a=a, sense=sense, rhs=rhs, c=c, objective_constant=wf * norms.fairness_min,
        lower=np.zeros(n_vars), upper=upper, is_integer=is_integer, constraints=blocks,
        layout=layout, norms=norms, guarded={},
    )


def expected_variable_count(inst: Instance) -> int:
    """Closed-form column count: |G||T| + 3|G||U| + 2|U| + |G| + sum |Q^t|."""
    n = inst.dims.n_cells
    n_t = len(inst.nbs)
    n_u = len(inst.measures)
    n_clusters = sum(len(inst.clusters_for(t)) for t in inst.nbs_ids)
    return n * n_t + 3 * n * n_u + 2 * n_u + n + n_clusters


# --- Compact solve model ---------------------------------------------------------


def build_compact_model(inst: Instance) -> BuiltModel:
    """The paper model without its big-M rows, its defined columns and its
    fixed columns, with the same optimum, built from the instance.

    x has a column only for an eligible (type, cell) pair (`Instance.eligible`):
    a forbidden pair's x is 0 and a pre-existing cell's x is 1 (or 0 for the
    other types there), so there are no forbidden or pre_existing rows, no
    budget row left with no entry, and no one_type row over fewer than two
    x columns, which the columns' bounds already state. There are no bigm or
    fairness rows and no z, zavg or f columns: the conv rows read
    `zbar - Kx <= 0`, the avg rows `mean(zbar) <= mean(a)`, zbar is capped at
    `delta`, and the costs of zavg and f move onto x, zbar and the constant
    through the rows that define them; a pre-existing cell's share of them
    goes into the constant, so a paper solution keeps its objective.

    To keep an avg row, zbar could stay below min(Kx, delta). No placement
    needs to for a measure with sum_c min(M_c, delta) <= sum_c a_c (M_c from
    `impact_bounds`, computed only where n delta > sum_c a_c). Every other
    measure is guarded: a cell with M_c <= delta gets the conv row zbar = Kx;
    any other gets a y column and the rows `zbar >= Kx - (M_c - delta)(1 - y)`
    (guard_conv) and `zbar >= delta (1 - y)` (guard_delta), the paper's bigm5
    and bigm6 with a per-cell M.
    """
    norms = objective_normalizers(inst)
    n, n_u = inst.dims.n_cells, len(inst.measures)
    delta = np.repeat(inst.deltas, n).reshape(n_u, n)
    totals = inst.fields.reshape(n_u, n).sum(axis=1)
    # min(M_c, delta) <= delta, so the sum over cells is at most delta's
    maybe = delta.sum(axis=1) > totals
    bound = impact_bounds(inst, maybe)
    guarded = maybe & (np.minimum(bound, delta).sum(axis=1) > totals)
    bound, delta = bound.ravel(), delta.ravel()
    guarded_cell = np.repeat(guarded, n)  # per (u, cell), as the conv rows
    binary = guarded_cell & (bound > delta)
    cells = np.flatnonzero(binary)
    layout = VariableLayout(inst, guard_cells=cells)
    n_vars = layout.n_variables
    zbar = layout.zbar_base + np.arange(n_u * n)

    families = _shared_rows(inst, layout)
    conv = _conv_rows(
        inst, layout, layout.zbar_base, np.where(guarded_cell & ~binary, SENSE_EQ, SENSE_LE)
    )
    avg = _avg_rows(inst, layout, zavg=False)
    families += [conv, _peak_rows(inst, layout), avg]

    if cells.size:
        y = layout.y_base + np.arange(len(cells))
        slack = bound[cells] - delta[cells]
        take = np.repeat(binary, conv.counts)  # the guarded cells' conv entries
        ends = np.cumsum(conv.counts[cells])  # y goes before each row's zbar, its last entry
        families.append(_rows(
            "guard_conv", "guard_conv_u{}_i{}_j{}", conv.labels[cells], conv.counts[cells] + 1,
            np.insert(conv.indices[take], ends - 1, y),
            np.insert(conv.coeffs[take], ends - 1, -slack),
            SENSE_GE, -slack,
        ))
        families.append(_rows(
            "guard_delta", "guard_delta_u{}_i{}_j{}", conv.labels[cells], 2,
            np.column_stack((y, zbar[cells])).ravel(),
            np.column_stack((delta[cells], np.ones(len(cells)))).ravel(),
            SENSE_GE, delta[cells],
        ))

    # c - c_def @ A_def and const + c_def @ rhs_def, with c_def the costs of
    # the defined columns on their rows: czavg on the avg rows, and -wf on
    # the fairness rows, whose rhs is 0. Per (type, cell) pair, `fair` is
    # its x's share of c_def @ A_def; a pre-existing pair's x is 1, so its
    # share goes into the constant.
    c, czavg, wf = _objective(inst, layout, norms)
    pre = inst.pre_existing.reshape(len(inst.nbs), n)
    pairs = np.arange(pre.size).reshape(pre.shape)
    _, fair_pairs, fair_coefs = _fairness_entries(
        inst, layout, pairs, (layout.x_column >= 0) | pre, None)
    fair = np.bincount(fair_pairs, fair_coefs * -wf, minlength=pre.size)
    c[layout.x_base : layout.y_base] -= fair[layout.x_pairs]
    c[zbar] -= np.repeat(czavg, n) * (1.0 / n)
    constant = wf * norms.fairness_min + float(czavg @ avg.rhs) - float(fair[pre.ravel()].sum())

    upper = np.ones(n_vars)
    upper[zbar] = delta
    upper[layout.zmax_base : layout.zavg_base] = np.inf
    is_integer = np.ones(n_vars, dtype=bool)
    is_integer[layout.zbar_base : layout.zavg_base] = False
    binaries = binary.reshape(n_u, n).sum(axis=1)
    a, sense, rhs, blocks = _stack(families, n_vars)
    return BuiltModel(
        a=a, sense=sense, rhs=rhs, c=c,
        objective_constant=constant,
        lower=np.zeros(n_vars), upper=upper, is_integer=is_integer, constraints=blocks,
        layout=layout, norms=norms,
        guarded={u: int(b) for u, g, b in zip(inst.measure_ids, guarded, binaries) if g},
    )


# --- Placement feasibility and objective evaluation --------------------------


@dataclass(frozen=True)
class Violation:
    family: str
    message: str


class InfeasiblePlacement(ValueError):
    """Placement breaks one or more constraint families."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = [f"[{v.family}] {v.message}" for v in violations]
        super().__init__("infeasible placement:\n - " + "\n - ".join(lines))


def _new_cost(inst: Instance, placement: engine.Placement) -> float:
    """The cost of a placement's newly installed cells."""
    return sum(t.cost * int(new.sum()) for t, new in zip(inst.nbs, placement.new_masks(inst)))


def check_placement(
    inst: Instance,
    placement: engine.Placement,
    reduction: np.ndarray | None = None,
) -> list[Violation]:
    """Independent check of every constraint family against a placement, by
    counts and tests over whole masks; `reduction` holds the placement's
    `engine.reduction` when it is known."""
    violations: list[Violation] = []

    crowded = int((sum(placement.masks[t].astype(int) for t in inst.nbs_ids) > 1).sum())
    if crowded:
        violations.append(Violation("one_type", f"{crowded} cell(s) host more than one NBS"))

    cost = _new_cost(inst, placement)
    if cost > inst.budget * (1 + FEAS_TOL) + FEAS_TOL:
        violations.append(Violation("budget", f"cost {cost!r} exceeds budget {inst.budget!r}"))

    for t, forbidden, pre in zip(inst.nbs_ids, inst.forbidden, inst.pre_existing):
        if (placement.masks[t] & forbidden).any():
            violations.append(Violation("forbidden", f"NBS {t!r} placed on forbidden cell(s)"))
        if (pre & ~placement.masks[t]).any():
            violations.append(Violation(
                "pre_existing", f"pre-existing NBS {t!r} cell(s) switched off"))

    for t in inst.nbs_ids:
        mask = placement.masks[t]
        for q, group in enumerate(inst.clusters_for(t)):
            used = mask[tuple(np.transpose(group))]
            if used.any() and not used.all():
                violations.append(Violation(
                    "cluster", f"cluster {q} of NBS {t!r} is partially used"))

    # zavg is a nonnegative variable, so placements driving the mean reduced
    # value below zero are infeasible in the MILP as well.
    if reduction is None:
        reduction = engine.reduction(inst, placement)
    for u, reduced in zip(inst.measure_ids, inst.fields - reduction):
        if float(reduced.mean()) < -FEAS_TOL:
            violations.append(Violation(
                "avg_nonneg", f"mean reduced value of measure {u!r} is negative"))

    return violations


@dataclass
class ObjectiveBreakdown:
    """Raw quantities and weighted normalized terms of the objective.

    `terms` is `objective_terms`' dict, keyed and ordered as a result file's
    `objective_terms`. `reduction` (`engine.reduction` of the placement) and
    `fairness_field` are the fields the quantities were computed from, and
    `norms` the normalizers of the terms.
    """

    terms: dict
    reduction: np.ndarray = field(compare=False, repr=False)
    fairness_field: np.ndarray = field(compare=False, repr=False)
    norms: Normalizers = field(compare=False, repr=False)

    @property
    def total(self) -> float:
        return self.terms["total"]


def objective_terms(inst: Instance, norms: Normalizers, reduced: np.ndarray,
                    cost_value: float, fairness_value: float) -> dict:
    """The objective's total, raw values and weighted normalized terms, keyed
    and ordered as a result file's `objective_terms`, from the reduced fields
    (per measure in measure order, each in any shape), the new cells' cost
    and the fairness total. The evaluation and the enumeration oracle both
    score with it; `avg_value` holds the means the `zavg >= 0` domain tests."""
    peak_value: dict[str, float] = {}
    avg_value: dict[str, float] = {}
    peak_term: dict[str, float] = {}
    avg_term: dict[str, float] = {}
    total = 0.0
    for u, scale, values in zip(inst.measure_ids, norms.peak_scale, reduced):
        # zmax/zavg live in R+, so the solver can never report below zero.
        peak_value[u] = max(0.0, float(values.max()))
        avg_value[u] = float(values.mean())
        peak_term[u] = inst.weights.peak[u] * scale * peak_value[u]
        avg_term[u] = inst.weights.avg[u] * scale * avg_value[u]
        total += peak_term[u] + avg_term[u]

    cost_term = inst.weights.cost * norms.cost_scale * cost_value
    total += cost_term
    fairness_term = (
        -inst.weights.fairness * norms.fairness_scale * (fairness_value - norms.fairness_min)
    )
    total += fairness_term
    return dict(total=total, peak_value=peak_value, avg_value=avg_value, cost_value=cost_value,
                fairness_value=fairness_value, peak_term=peak_term, avg_term=avg_term,
                cost_term=cost_term, fairness_term=fairness_term)


def evaluate_solution(inst: Instance, placement: engine.Placement,
                      norms: Normalizers) -> ObjectiveBreakdown:
    """Objective value of a placement, computed directly from the fields.

    Uses the same term structure as build_model, with no MILP involved, so it
    doubles as the independent evaluation for verifying solver output. The
    terms come from `objective_terms`, which the enumeration oracle also
    scores its leaves with, holding them to `check_placement`'s `zavg >= 0`
    tolerance, FEAS_TOL. `norms` are the normalizers the objective is built
    with. Raises InfeasiblePlacement when `check_placement` finds a
    violation. Each reduction field is computed once, for the check and the
    terms, and the breakdown keeps the reduction and fairness fields, so the
    report does not compute them again.
    """
    reduction = engine.reduction(inst, placement)
    violations = check_placement(inst, placement, reduction)
    if violations:
        raise InfeasiblePlacement(violations)
    fairness_field = engine.fairness(inst, placement)
    terms = objective_terms(inst, norms, inst.fields - reduction, _new_cost(inst, placement),
                            float(fairness_field.sum()))
    return ObjectiveBreakdown(terms, reduction, fairness_field, norms)
