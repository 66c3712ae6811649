"""The bundled HiGHS adapter: the entry point the in-process solve calls, and a
subprocess that reads MPS, solves with HiGHS and writes a solution file.

Usage: python -m nbsopt.solver_cli MODEL.mps SOLUTION.sol TIMELIMIT [--gap G]

Both go through `solve_mps`, which takes any MipProblem: the compact model
that every solve hands its solver, the paper model, or the MpsData that
`mps.read_mps` gets from HiGHS's own MPS reader. Every one reaches the HiGHS
that scipy bundles through its `_Highs` binding as the same arrays (the CSR
matrix passed as HiGHS's row-wise one, with no copy made here) with the same
options, so the compact model exported by a solver-command solve is solved
exactly as the in-process solve solves it.
One option depends on the problem, and it is read from the arrays alone:
HiGHS's feasibility-jump heuristic runs only where some `>=` row has an entry
in an integer column. Elsewhere the integer columns sit only in `<=` and
`=` rows (in the unguarded compact model: one_type, budget, cluster and
conv, with the peak rows, its only `>=` rows, on `zbar` and `zmax` alone), so the pre-existing-only placement is feasible,
HiGHS finds it without the heuristic, and the heuristic's fixed cost (about
10 ms even after presolve leaves a handful of columns) buys nothing. The
guard rows of a guarded compact model and the paper model's big-M rows are
`>=` rows on binaries, so those models keep the heuristic, whose incumbent
can be the only one a time limit leaves.
`mps.highs_binding` loads that binding from its extension file without
importing `scipy.optimize`, whose package init costs a process more than the
binding does. HiGHS's stray debug lines on stdout go to stderr.
`solve_mps` returns a `solve.Answer`. The in-process solve verifies that
answer; this program writes it with `solve.solution_text`, and the solve that
runs a solver command reads it back with `solve.parse_solution_file`, so the
file format lives in `solve` alone. Statuses: optimal, feasible-timeout,
no-incumbent, infeasible, unbounded, error. This is the reference
implementation of the solver-side contract; any external solver wrapped to
the same file formats can replace it.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from .model import SENSE_GE, SENSE_LE, MipProblem
from .mps import MpsData, highs_binding, read_mps
from .solve import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_NO_INCUMBENT,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    STATUS_UNBOUNDED,
    Answer,
    solution_text,
)

_core = highs_binding()
_MODEL = _core.HighsModelStatus
# The solution-file status of each HiGHS model status, and the opening of its
# message, worded as scipy's `milp` words them; any other model status is an
# error. A limit reached without a solution is no-incumbent.
_STATUSES = {
    _MODEL.kOptimal: (STATUS_OPTIMAL, "Optimization terminated successfully. "),
    _MODEL.kTimeLimit: (STATUS_TIMEOUT, "Time limit reached. "),
    _MODEL.kIterationLimit: (STATUS_TIMEOUT, "Iteration limit reached. "),
    _MODEL.kInfeasible: (STATUS_INFEASIBLE, "The problem is infeasible. "),
    _MODEL.kUnbounded: (STATUS_UNBOUNDED, "The problem is unbounded. "),
    _MODEL.kUnboundedOrInfeasible: (STATUS_ERROR, "The problem is unbounded or infeasible. "),
}
_ROWWISE, _MINIMIZE = int(_core.MatrixFormat.kRowwise), int(_core.ObjSense.kMinimize)


class _StdoutToStderr:
    """Points file descriptor 1 at descriptor 2 while it is entered.

    HiGHS prints some debug lines to stdout whatever its log options, so
    `run` happens inside this, and stdout holds only what nbsopt prints.
    `run` releases the interpreter lock, and descriptor 1 belongs to the whole
    process, so threads solving at once share one redirect: the first to enter
    makes it and the last to leave undoes it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = -1

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                sys.stdout.flush()
                self._saved = os.dup(1)
                os.dup2(2, 1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                os.dup2(self._saved, 1)
                os.close(self._saved)


_STDOUT_TO_STDERR = _StdoutToStderr()


def _run_highs(options: dict, *, c, a, row_lower, row_upper, col_lower, col_upper, integrality):
    """A HiGHS instance that has run with `options` on the problem the arrays
    state: the one place a problem is handed to HiGHS. The CSR matrix `a` is
    passed as HiGHS's row-wise matrix, as it is; `integrality` is 1 for an
    integer column and 0 for a continuous one."""
    highs = _core._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) != _core.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {name}={value!r}")
    status = highs.passModel(
        len(c), a.shape[0], a.nnz, _ROWWISE, _MINIMIZE, 0.0, c, col_lower, col_upper,
        row_lower, row_upper, a.indptr, a.indices, a.data, integrality,
    )
    if status != _core.HighsStatus.kError:
        with _STDOUT_TO_STDERR:
            highs.run()
    return highs


def solve_mps(data: MipProblem, time_limit: float, gap: float = 0.0) -> Answer:
    """HiGHS's answer on a problem, with the objective constant added.

    Minimizes `c @ x` subject to each row of `a @ x` against `rhs` with the
    row's `sense`, `lower <= x <= upper`, and integrality where `is_integer`.
    The answer has a vector and objective only where HiGHS has a solution: at
    an optimum, or at a limit of a problem with integer columns once one was
    found. A problem with integer columns also has HiGHS's dual bound there,
    and at a limit with no solution (`no-incumbent`), wherever that bound is
    finite. Its node count, MIP gap and primal-dual integral are HiGHS's for
    such a problem, and None otherwise.

    HiGHS's feasibility-jump heuristic runs only where some `>=` row
    (`sense == SENSE_GE`) has an entry in an integer column; without one, the
    integer columns sit only in `<=` and `=` rows, a trivial placement is
    already feasible, and the heuristic adds nothing but its fixed cost (see
    the module docstring). The choice reads only the arrays, so a model solved
    in memory and the same model read back from its MPS file get the same
    options.

    When presolve finds the problem unbounded or infeasible without telling
    which (as HiGHS's MIP presolve does for an unbounded MIP), HiGHS runs once
    more without presolve, for the time left, and that run's status is the
    answer's.
    """
    started = time.perf_counter()
    ge_entries = np.repeat(data.sense == SENSE_GE, np.diff(data.a.indptr))
    covering = bool(data.is_integer[data.a.indices[ge_entries]].any())
    options = {"log_to_console": False, "presolve": "on",
               "time_limit": float(time_limit), "mip_rel_gap": float(gap),
               "mip_heuristic_run_feasibility_jump": covering}
    arrays = dict(
        c=data.c, a=data.a, col_lower=data.lower, col_upper=data.upper,
        row_lower=np.where(data.sense == SENSE_LE, -np.inf, data.rhs),
        row_upper=np.where(data.sense == SENSE_GE, np.inf, data.rhs),
        integrality=data.is_integer.astype(np.int32),
    )
    highs = _run_highs(options, **arrays)
    if highs.getModelStatus() == _MODEL.kUnboundedOrInfeasible:
        left = max(0.0, float(time_limit) - (time.perf_counter() - started))
        highs = _run_highs({**options, "presolve": "off", "time_limit": left}, **arrays)
    model_status, info = highs.getModelStatus(), highs.getInfo()
    status, opening = _STATUSES.get(model_status, (STATUS_ERROR, ""))
    is_mip = bool(data.is_integer.any())
    if status == STATUS_TIMEOUT and not (is_mip and info.objective_function_value < np.inf):
        status = STATUS_NO_INCUMBENT
    found = status in (STATUS_OPTIMAL, STATUS_TIMEOUT)
    detail = highs.modelStatusToString(model_status)
    if not found:
        detail = (f"model_status is {detail}; primal_status is "
                  f"{highs.solutionStatusToString(info.primal_solution_status)}")
    constant = data.objective_constant
    bounded = (found or status == STATUS_NO_INCUMBENT) and np.isfinite(info.mip_dual_bound)
    return Answer(
        status,
        np.array(highs.getSolution().col_value) if found else None,
        info.objective_function_value + constant if found else None,
        info.mip_dual_bound + constant if bounded and is_mip else None,
        f"{opening}(HiGHS Status {int(model_status)}: {detail})",
        mip_node_count=info.mip_node_count if is_mip else None,
        mip_gap=info.mip_gap if is_mip else None,
        primal_dual_integral=info.primal_dual_integral if is_mip else None,
    )


def write_solution(path: Path, data: MpsData, res: Answer, wall_time: float) -> None:
    """Write `solve_mps`'s answer on `data` as a solution file."""
    path.write_text(solution_text(data.column_names, res, wall_time), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbsopt.solver_cli", description="Solve a free-format MPS file with HiGHS."
    )
    parser.add_argument("model", type=Path)
    parser.add_argument("solution", type=Path)
    parser.add_argument("timelimit", type=float)
    parser.add_argument("--gap", type=float, default=0.0, help="relative MIP gap")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    data = read_mps(args.model)
    res = solve_mps(data, args.timelimit, args.gap)
    write_solution(args.solution, data, res, time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
