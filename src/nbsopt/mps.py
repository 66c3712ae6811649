"""Free-format MPS export and import for MilpModel.

The emitted dialect is plain free MPS: NAME / ROWS / COLUMNS (with
INTORG/INTEND integrality markers) / RHS / BOUNDS / ENDATA, one coefficient
per line, names as written by the model builder. Binary variables carry BV
bounds. An objective constant is encoded as minus the RHS entry of the
objective row, the convention shared by common solvers. The writer reads the
model's one constraint matrix, with the nonzeros of the objective vector as
an extra first row. Output is byte-deterministic for a given model.

The reader accepts the same dialect plus the usual bound codes (UP, LO, FX,
MI, PL, BV, UI, LI) and comment lines starting with '*'. RANGES sections are
not supported. It returns an MpsData, a MipProblem like MilpModel (one CSR
matrix `a`, per-row `sense` and `rhs`, objective vector `c`), so the solver
entry point takes either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np
from scipy import sparse

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel, MipProblem

_SENSE_TO_CODE = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
_CODE_TO_SENSE = {v: k for k, v in _SENSE_TO_CODE.items()}

MODEL_NAME = "nbsopt"
OBJECTIVE_ROW = "obj"
RHS_SET = "rhs"
BOUND_SET = "bnd"
CHUNK_LINES = 1 << 14


class MpsFormatError(ValueError):
    """Malformed or unsupported MPS content."""


def _fmt(value: float) -> str:
    return repr(float(value))


def _chunks(line: Callable[..., str], *fields: np.ndarray) -> Iterator[str]:
    """`line` applied across aligned arrays, joined CHUNK_LINES lines at a time."""
    for lo in range(0, len(fields[0]), CHUNK_LINES):
        yield "".join(map(line, *(f[lo : lo + CHUNK_LINES].tolist() for f in fields)))


def _reprs(values: np.ndarray) -> np.ndarray:
    """`repr` of every value, computed once per distinct bit pattern."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)[inverse]


def _bound_lines(name: str, lower: float, upper: float, binary: bool) -> str:
    if binary:
        return f" BV {BOUND_SET} {name}\n"
    lo = f" LO {BOUND_SET} {name} {lower!r}\n" if lower != 0.0 else ""
    up = f" UP {BOUND_SET} {name} {upper!r}\n" if math.isfinite(upper) else ""
    return lo + up


def iter_mps_text(model: MilpModel) -> Iterator[str]:
    """Yield the MPS file text for a model, a bounded number of lines at a time."""
    col_names = np.array(model.layout.column_names(), dtype=object)
    row_names = np.array(
        [OBJECTIVE_ROW] + [s for b in model.constraints for s in b.row_names()],
        dtype=object,
    )
    rhs = model.rhs
    # the objective's nonzeros as row 0; each column's entries sorted by row
    a = sparse.vstack([sparse.csr_matrix(model.c[None, :]), model.a], format="csc")

    covered = np.diff(a.indptr) > 0
    if not covered.all():
        missing = col_names[int(np.argmin(covered))]
        raise MpsFormatError(f"variable {missing!r} appears in no row; cannot export")

    yield f"NAME {MODEL_NAME}\nROWS\n N {OBJECTIVE_ROW}\n"
    codes = np.array([_SENSE_TO_CODE[s] for s in model.sense.tolist()], dtype=object)
    yield from _chunks(lambda code, row: f" {code} {row}\n", codes, row_names[1:])

    # Columns in index order, each run of equal integrality between markers.
    yield "COLUMNS\n"
    is_integer = model.is_integer
    edges = np.flatnonzero(is_integer[1:] != is_integer[:-1]) + 1
    in_integer, marker = False, 0
    for start, stop in zip([0, *edges.tolist()], [*edges.tolist(), model.n_variables]):
        if is_integer[start] != in_integer:
            in_integer = not in_integer
            yield f" M{marker} 'MARKER' '{'INTORG' if in_integer else 'INTEND'}'\n"
            marker += 1
        for lo in range(a.indptr[start], a.indptr[stop], CHUNK_LINES):
            entries = np.arange(lo, min(lo + CHUNK_LINES, a.indptr[stop]))
            cols = np.searchsorted(a.indptr, entries, side="right") - 1
            yield from _chunks(
                lambda col, row, value: f" {col} {row} {value}\n",
                col_names[cols],
                row_names[a.indices[entries]],
                _reprs(a.data[entries]),
            )
    if in_integer:
        yield f" M{marker} 'MARKER' 'INTEND'\n"

    yield "RHS\n"
    if model.objective_constant != 0.0:
        yield f" {RHS_SET} {OBJECTIVE_ROW} {_fmt(-model.objective_constant)}\n"
    nonzero = np.flatnonzero(rhs != 0.0)
    yield from _chunks(
        lambda row, value: f" {RHS_SET} {row} {value}\n",
        row_names[1:][nonzero],
        _reprs(rhs[nonzero]),
    )

    yield "BOUNDS\n"
    lower, upper = model.lower, model.upper
    binary = is_integer & (lower == 0.0) & (upper == 1.0)
    bounded = np.flatnonzero(binary | (lower != 0.0) | np.isfinite(upper))
    yield from _chunks(
        _bound_lines, col_names[bounded], lower[bounded], upper[bounded], binary[bounded]
    )
    yield "ENDATA\n"


def export_interchange(model: MilpModel, path: str | Path) -> None:
    """Write the model as a free-format MPS file (byte-deterministic)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(iter_mps_text(model))


@dataclass
class MpsData(MipProblem):
    """Parsed MPS content as a problem, plus the file's names.

    `a` has duplicate entries summed; the objective row is not a row of `a`.
    """

    name: str
    row_names: list[str]
    column_names: list[str]


class _MpsParser:
    def __init__(self) -> None:
        self.name = ""
        self.row_names: list[str] = []
        self.row_senses: list[str] = []
        self.row_index: dict[str, int] = {}
        self.objective_row: str | None = None
        self.column_names: list[str] = []
        self.col_index: dict[str, int] = {}
        self.entries: list[tuple[int, int, float]] = []
        self.objective: dict[int, float] = {}
        self.objective_constant = 0.0
        self.rhs: dict[int, float] = {}
        self.bounds: list[tuple[str, str, float | None]] = []
        self.integer_cols: set[int] = set()
        self._in_integer = False

    def _col(self, name: str) -> int:
        if name not in self.col_index:
            self.col_index[name] = len(self.column_names)
            self.column_names.append(name)
        return self.col_index[name]

    def handle_row(self, tokens: list[str]) -> None:
        code, name = tokens[0].upper(), tokens[1]
        if code == "N":
            if self.objective_row is None:
                self.objective_row = name
            return
        if code not in _CODE_TO_SENSE:
            raise MpsFormatError(f"unknown row sense {code!r}")
        self.row_index[name] = len(self.row_names)
        self.row_names.append(name)
        self.row_senses.append(_CODE_TO_SENSE[code])

    def handle_column(self, tokens: list[str]) -> None:
        if len(tokens) >= 3 and tokens[1] == "'MARKER'":
            marker = tokens[2].strip("'")
            if marker == "INTORG":
                self._in_integer = True
            elif marker == "INTEND":
                self._in_integer = False
            else:
                raise MpsFormatError(f"unknown marker {marker!r}")
            return
        if len(tokens) not in (3, 5):
            raise MpsFormatError(f"bad COLUMNS line: {' '.join(tokens)}")
        col = self._col(tokens[0])
        if self._in_integer:
            self.integer_cols.add(col)
        for k in range(1, len(tokens), 2):
            row, val = tokens[k], float(tokens[k + 1])
            if row == self.objective_row:
                self.objective[col] = self.objective.get(col, 0.0) + val
            elif row in self.row_index:
                self.entries.append((self.row_index[row], col, val))
            else:
                raise MpsFormatError(f"COLUMNS references unknown row {row!r}")

    def handle_rhs(self, tokens: list[str]) -> None:
        if len(tokens) not in (3, 5):
            raise MpsFormatError(f"bad RHS line: {' '.join(tokens)}")
        for k in range(1, len(tokens), 2):
            row, val = tokens[k], float(tokens[k + 1])
            if row == self.objective_row:
                self.objective_constant = -val
            elif row in self.row_index:
                self.rhs[self.row_index[row]] = val
            else:
                raise MpsFormatError(f"RHS references unknown row {row!r}")

    def handle_bound(self, tokens: list[str]) -> None:
        code = tokens[0].upper()
        if code in ("BV", "MI", "PL", "FR"):
            if len(tokens) != 3:
                raise MpsFormatError(f"bad BOUNDS line: {' '.join(tokens)}")
            self.bounds.append((code, tokens[2], None))
        else:
            if len(tokens) != 4:
                raise MpsFormatError(f"bad BOUNDS line: {' '.join(tokens)}")
            self.bounds.append((code, tokens[2], float(tokens[3])))

    def finish(self) -> MpsData:
        n_cols = len(self.column_names)
        lower = np.zeros(n_cols)
        upper = np.full(n_cols, np.inf)
        is_integer = np.zeros(n_cols, dtype=bool)
        for col in self.integer_cols:
            is_integer[col] = True
        for code, name, value in self.bounds:
            if name not in self.col_index:
                raise MpsFormatError(f"BOUNDS references unknown column {name!r}")
            col = self.col_index[name]
            if code == "BV":
                lower[col], upper[col] = 0.0, 1.0
                is_integer[col] = True
            elif code == "UP" or code == "UI":
                upper[col] = value
            elif code == "LO" or code == "LI":
                lower[col] = value
            elif code == "FX":
                lower[col] = upper[col] = value
            elif code == "MI":
                lower[col] = -np.inf
            elif code in ("PL", "FR"):
                upper[col] = np.inf
                if code == "FR":
                    lower[col] = -np.inf
            else:
                raise MpsFormatError(f"unknown bound code {code!r}")
        n_rows = len(self.row_names)
        rows, cols, vals = zip(*self.entries) if self.entries else ((), (), ())
        a = sparse.csr_matrix(
            (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=np.int64),
                                              np.asarray(cols, dtype=np.int64))),
            shape=(n_rows, n_cols),
        )
        rhs = np.zeros(n_rows)
        rhs[list(self.rhs)] = list(self.rhs.values())
        c = np.zeros(n_cols)
        c[list(self.objective)] = list(self.objective.values())
        return MpsData(
            name=self.name,
            row_names=self.row_names,
            column_names=self.column_names,
            a=a,
            sense=np.array(self.row_senses, dtype=str),
            rhs=rhs,
            c=c,
            objective_constant=self.objective_constant,
            lower=lower,
            upper=upper,
            is_integer=is_integer,
        )


def read_mps(source: str | Path | IO[str]) -> MpsData:
    """Parse a free-format MPS file into arrays."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()

    parser = _MpsParser()
    section = ""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        tokens = line.split()
        head = tokens[0].upper()
        if not line[0].isspace():
            if head == "NAME":
                parser.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if head in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
                section = head
                if head == "ENDATA":
                    break
                continue
            if head == "RANGES":
                raise MpsFormatError("RANGES sections are not supported")
            raise MpsFormatError(f"line {lineno}: unknown section {tokens[0]!r}")
        try:
            if section == "ROWS":
                parser.handle_row(tokens)
            elif section == "COLUMNS":
                parser.handle_column(tokens)
            elif section == "RHS":
                parser.handle_rhs(tokens)
            elif section == "BOUNDS":
                parser.handle_bound(tokens)
            else:
                raise MpsFormatError(f"data outside any section: {line!r}")
        except MpsFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise MpsFormatError(f"line {lineno}: {exc}")
    if parser.objective_row is None:
        raise MpsFormatError("no objective (N) row declared")
    return parser.finish()
