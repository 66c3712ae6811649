"""Free-format MPS export and import for the paper and compact models.

The emitted dialect is plain free MPS: NAME / ROWS / COLUMNS (with
INTORG/INTEND integrality markers) / RHS / BOUNDS / ENDATA, one coefficient
per line, names as written by the model builder. Binary variables carry BV
bounds and other finite upper bounds UP bounds; every column's lower bound is
0, so no LO bound is written. An objective constant is encoded as minus the
RHS entry of the objective row, the convention shared by common solvers. The
writer reads the model's one constraint matrix (a `model.CsrMatrix`) column
by column and writes each column's objective coefficient, when nonzero,
before the column's matrix entries. Once per export it makes two arrays
indexed by COLUMNS line: each line's row and each line's value code (its
index into the value texts, in the narrowest unsigned type that holds them).
One pass over the matrix, in chunks of whole rows, fills them: a stable sort
of a chunk's columns ranks each entry among the chunk's entries in its
column, and the entry's row and code (a binary search in the value table)
go to its column's next unfilled line plus that rank. COLUMNS is then cut
into chunks of whole columns, about CHUNK_LINES lines each: a chunk repeats
each column's name over the column's line count and reads its lines' rows
and codes as contiguous slices. Every other working array holds a chunk, or
one entry per row or column. Output is byte-deterministic for a given model.

Every section's text is assembled about CHUNK_LINES lines at a time, with no
Python call per line: a chunk's pieces (row and column names, each with its
leading space, indexed from the name arrays; value texts; shared section
texts) fill one object array, one line per row, which one `str.join` turns
into text. Each value's text (a space, its `repr` and a newline) is made once
per export for each distinct bit pattern among the coefficients, right-hand
sides and finite upper bounds, found by sorting the patterns and keeping each
that differs from its left neighbour, a chunk of coefficients at a time, so
-0.0 and 0.0 keep their own text.

The reader hands the file to the HiGHS that scipy bundles and turns the model
HiGHS read into an MpsData, a MipProblem like either model (one CsrMatrix `a`,
sorted from HiGHS's column-wise matrix, per-row `sense` and `rhs`, objective
vector `c`), so the solver entry point takes either. It shares no code with
the writer. HiGHS parses leniently: it reads an unknown section header as a
row name and drops a non-numeric or repeated coefficient without saying so.
The files read here are the ones this writer produced, and every answer is
checked against the instance again.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Iterator

import numpy as np
import scipy

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, BuiltModel, CsrMatrix, MipProblem

_SENSE_TO_CODE = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}

MODEL_NAME = "nbsopt"
OBJECTIVE_ROW = "obj"
RHS_SET = "rhs"
BOUND_SET = "bnd"
CHUNK_LINES = 1 << 14


class MpsFormatError(ValueError):
    """Malformed or unsupported MPS content."""


def _lines(*pieces: str | np.ndarray) -> str:
    """Lines made of `pieces` in order, one line per entry of the array
    pieces; a str piece is shared by every line. One join builds them all."""
    n = len(next(p for p in pieces if not isinstance(p, str)))
    parts = np.empty((n, len(pieces)), dtype=object)
    for k, piece in enumerate(pieces):
        parts[:, k] = piece
    return "".join(parts.ravel().tolist())


def _chunked_lines(*pieces: str | np.ndarray) -> Iterator[str]:
    """`_lines` over aligned arrays, CHUNK_LINES lines at a time."""
    n = len(next(p for p in pieces if not isinstance(p, str)))
    for lo in range(0, n, CHUNK_LINES):
        yield _lines(*(p if isinstance(p, str) else p[lo : lo + CHUNK_LINES] for p in pieces))


def _chunks(bounds: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Runs of whole items, from item `start` up to `stop`, item k holding
    the lines `bounds[k]` up to `bounds[k + 1]`: as many items as fit in
    CHUNK_LINES lines, or one."""
    while start < stop:
        end = np.searchsorted(bounds, bounds[start] + CHUNK_LINES, side="right") - 1
        end = int(np.clip(end, start + 1, stop))
        yield start, end
        start = end


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct values of `bits`, ascending: each is kept where it
    differs from its left neighbour in a sorted copy."""
    bits = np.sort(bits)
    return np.concatenate((bits[:1], bits[1:][bits[1:] != bits[:-1]]))


def iter_mps_text(model: BuiltModel) -> Iterator[str]:
    """Yield the MPS file text for a model, a bounded number of lines at a time."""
    a, c, rhs, upper = model.a, model.c, model.rhs, model.upper
    n_rows, n_cols = a.shape
    entry_chunks = range(0, a.nnz, CHUNK_LINES)
    # Every coefficient's, cost's, right-hand side's and finite upper bound's
    # text, " repr\n", once per distinct bit pattern, so -0.0 and 0.0 stay
    # apart; the coefficients' patterns are de-duplicated a chunk at a time.
    # Lower bounds are all 0: a binary is an integer column with upper bound 1.
    binary = model.is_integer & (upper == 1.0)
    capped = ~binary & np.isfinite(upper)
    bits = _distinct(np.concatenate(
        [_distinct(a.data[lo : lo + CHUNK_LINES].view(np.int64)) for lo in entry_chunks]
        + [c.view(np.int64), rhs.view(np.int64), upper[capped].view(np.int64)]))
    value_text = np.array([f" {v!r}\n" for v in bits.view(float).tolist()], dtype=object)
    code_type = np.min_scalar_type(len(bits))

    def code_of(v: np.ndarray) -> np.ndarray:  # indices into value_text, as narrow as fits
        return np.searchsorted(bits, v.view(np.int64)).astype(code_type)

    # Names carry their leading space, so every line joins three pieces. A
    # matrix entry's index into `row_names` is its row + 1; 0 is the objective.
    col_names = np.array(model.layout.column_names(" "), dtype=object)
    row_names = [f" {OBJECTIVE_ROW}"]
    for block in model.constraints:
        row_names += block.row_names(" ")
    row_names = np.array(row_names, dtype=object)
    yield f"NAME {MODEL_NAME}\nROWS\n N {OBJECTIVE_ROW}\n"
    senses, sense_of_row = np.unique(model.sense, return_inverse=True)
    codes = np.array([f" {_SENSE_TO_CODE[s]}" for s in senses.tolist()], dtype=object)
    yield from _chunked_lines(codes[sense_of_row], row_names[1:], "\n")

    # The COLUMNS lines, column by column: the objective's entry, when it is
    # nonzero, then the matrix's entries, rows ascending. Column j's lines
    # are `bounds[j]` up to `bounds[j + 1]`, its counts summed a chunk of
    # entries at a time.
    in_objective = c != 0.0
    per_column = in_objective.astype(np.int64)
    for lo in entry_chunks:
        per_column += np.bincount(a.indices[lo : lo + CHUNK_LINES], minlength=n_cols)
    if not per_column.all():
        missing = col_names[int(np.argmin(per_column))][1:]
        raise MpsFormatError(f"variable {missing!r} appears in no row; cannot export")
    bounds = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(per_column, out=bounds[1:])

    # Each line's index into `row_names` (in the type of `a.indptr`) and
    # value code, filled a chunk of whole rows at a time: an entry goes as
    # many lines past its column's next unfilled one as the chunk has
    # entries before it in that column. The chunks and the stable sort keep
    # row order, so rows ascend within each column.
    line_row = np.zeros(bounds[-1], dtype=a.indptr.dtype)  # the objective's stays 0
    line_code = np.empty(bounds[-1], dtype=code_type)
    line_code[bounds[:-1][in_objective]] = code_of(c[in_objective])
    next_line = bounds[:-1] + in_objective
    for r0, r1 in _chunks(a.indptr, 0, n_rows):
        lo, hi = a.indptr[r0], a.indptr[r1]
        order = np.argsort(a.indices[lo:hi], kind="stable")
        column = a.indices[lo:hi][order]
        starts = np.flatnonzero(np.diff(column, prepend=-1))  # each column's first entry
        sizes = np.diff(starts, append=len(column))
        columns = column[starts]
        line = np.repeat(next_line[columns] - starts, sizes) + np.arange(len(column))
        rows = np.arange(r0 + 1, r1 + 1, dtype=a.indptr.dtype)
        line_row[line] = np.repeat(rows, np.diff(a.indptr[r0 : r1 + 1]))[order]
        line_code[line] = code_of(a.data[lo:hi])[order]  # searched faster in matrix order
        next_line[columns] += sizes

    # Columns in index order, each run of equal integrality between markers,
    # in chunks of whole columns, each a contiguous run of lines.
    yield "COLUMNS\n"
    is_integer = model.is_integer
    edges = np.flatnonzero(is_integer[1:] != is_integer[:-1]) + 1
    in_integer, marker = False, 0
    for start, stop in zip([0, *edges.tolist()], [*edges.tolist(), n_cols]):
        if is_integer[start] != in_integer:
            in_integer = not in_integer
            yield f" M{marker} 'MARKER' '{'INTORG' if in_integer else 'INTEND'}'\n"
            marker += 1
        for c0, c1 in _chunks(bounds, start, stop):
            lines = slice(bounds[c0], bounds[c1])
            yield _lines(np.repeat(col_names[c0:c1], per_column[c0:c1]),
                         row_names[line_row[lines]], value_text[line_code[lines]])
    if in_integer:
        yield f" M{marker} 'MARKER' 'INTEND'\n"

    yield "RHS\n"
    if model.objective_constant != 0.0:
        yield f" {RHS_SET} {OBJECTIVE_ROW} {float(-model.objective_constant)!r}\n"
    nonzero = np.flatnonzero(rhs != 0.0)
    yield from _chunked_lines(
        f" {RHS_SET}", row_names[1:][nonzero], value_text[code_of(rhs[nonzero])])

    yield "BOUNDS\n"
    bounded = np.flatnonzero(binary | capped)
    up = capped[bounded]
    tail = np.full(len(bounded), "\n", dtype=object)
    tail[up] = value_text[code_of(upper[bounded[up]])]
    yield from _chunked_lines(
        np.where(up, f" UP {BOUND_SET}", f" BV {BOUND_SET}"), col_names[bounded], tail)
    yield "ENDATA\n"


def export_interchange(model: BuiltModel, path: str | Path) -> None:
    """Write the model as a free-format MPS file (byte-deterministic)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(iter_mps_text(model))


@dataclass(eq=False)
class MpsData(MipProblem):
    """An MPS file as HiGHS read it: a problem, plus the file's column names.
    The objective row is not a row of `a`."""

    column_names: list[str]


def highs_binding() -> ModuleType:
    """scipy's bundled HiGHS binding, `scipy.optimize._highspy._core`, loaded
    without running `scipy.optimize`'s package init.

    That init imports most of scipy (linalg, fft, spatial and the other
    optimizers), which costs a process far more than the binding's own
    extension file. The binding is returned from `sys.modules` when it is
    already there, as after `import scipy.optimize`, so the extension is never
    loaded twice; otherwise its file is loaded from scipy's install directory
    under the canonical name and registered in `sys.modules`. Raises
    ImportError naming the directory when no such file is there.

    When nbsopt loaded the binding first, a later `import scipy.optimize`
    uses the same module: `milp` works, and so does
    `from scipy.optimize._highspy import _core`, but attribute access
    (`scipy.optimize._highspy._core`) raises AttributeError, because the
    parent package was imported after its submodule.
    """
    name = "scipy.optimize._highspy._core"
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    directory = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no {name} extension file in {directory}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def read_mps(path: str | Path) -> MpsData:
    """Read a free-format MPS file with the HiGHS that scipy bundles.

    HiGHS picks its reader by the file's extension, so the name ends in
    `.mps`. Raises MpsFormatError unless HiGHS reads the file with status
    `kOk`, and for what a MipProblem cannot hold: a maximization, a ranged or
    free row, or a semi-continuous or semi-integer column.
    """
    _core = highs_binding()
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    if status != _core.HighsStatus.kOk:
        raise MpsFormatError(f"HiGHS read {str(path)!r} with status {status.name}, not kOk")
    lp = highs.getLp()
    if lp.sense_ != _core.ObjSense.kMinimize:
        raise MpsFormatError("only minimization is supported")

    row_lower, row_upper = np.array(lp.row_lower_), np.array(lp.row_upper_)
    below, above = row_lower <= -_core.kHighsInf, row_upper >= _core.kHighsInf
    two_sided = (below == above) & (row_lower != row_upper)
    if two_sided.any():
        name = lp.row_names_[int(np.argmax(two_sided))]
        raise MpsFormatError(f"row {name!r} is ranged or free; only L, G and E rows are supported")

    continuous, integer = _core.HighsVarType.kContinuous, _core.HighsVarType.kInteger
    kinds = lp.integrality_ or [continuous] * lp.num_col_
    if set(kinds) - {continuous, integer}:
        raise MpsFormatError("semi-continuous and semi-integer columns are not supported")

    # HiGHS holds the matrix column by column; a stable sort by row keeps
    # each row's entries in column order
    m = lp.a_matrix_
    rows = np.array(m.index_, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    cols = np.repeat(np.arange(lp.num_col_), np.diff(m.start_))
    a = CsrMatrix.from_rows(np.bincount(rows, minlength=lp.num_row_), cols[order],
                            np.array(m.value_, dtype=float)[order], lp.num_col_)
    # kHighsInf is IEEE infinity, so the column bounds need no mapping
    return MpsData(
        a=a,
        sense=np.where(below, SENSE_LE, np.where(above, SENSE_GE, SENSE_EQ)),
        rhs=np.where(below, row_upper, row_lower),
        c=np.array(lp.col_cost_),
        objective_constant=float(lp.offset_),
        lower=np.array(lp.col_lower_),
        upper=np.array(lp.col_upper_),
        is_integer=np.array([k == integer for k in kinds], dtype=bool),
        column_names=list(lp.col_names_),
    )
