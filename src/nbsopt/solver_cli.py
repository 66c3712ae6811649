"""The bundled HiGHS adapter: the entry point the in-process solve calls, and a
subprocess that reads MPS, solves with HiGHS and writes a solution file.

Usage: python -m nbsopt.solver_cli MODEL.mps SOLUTION.sol TIMELIMIT [--gap G]

Both go through `solve_mps`, which takes a MilpModel, the CompactModel sliced
from one, or the MpsData that `mps.read_mps` gets from HiGHS's own MPS
reader: each is a MipProblem. Every one reaches HiGHS through
`scipy.optimize.milp` as the same arrays with the same options, so a file
exported from a model is solved exactly as the model is in-process. `answer`
reads a `solve.Answer` from the HiGHS result. The in-process solve verifies
that answer; this program writes it with `solve.solution_text`, and the
solve that runs a solver command reads it back with
`solve.parse_solution_file`, so the file format lives in `solve` alone.
Statuses: optimal, feasible-timeout, no-incumbent, infeasible, unbounded,
error. This is the reference implementation of the solver-side contract; any
external solver wrapped to the same file formats can replace it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import SENSE_GE, SENSE_LE, MipProblem
from .mps import MpsData, read_mps
from .solve import (
    STATUS_INFEASIBLE,
    STATUS_NO_INCUMBENT,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    Answer,
    solution_text,
)

# solution-file status names for scipy's HiGHS status codes; code 1, the
# time limit, names one of two statuses and is mapped in `answer`
_STATUS_NAMES = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: "unbounded"}


def solve_mps(data: MipProblem, time_limit: float, gap: float = 0.0):
    """Run HiGHS on a problem; returns the scipy result object.

    Minimizes `c @ x` subject to each row of `a @ x` against `rhs` with the
    row's `sense`, `lower <= x <= upper`, and integrality where `is_integer`.
    The objective constant is left to the caller.
    """
    sense, rhs = data.sense, data.rhs
    return milp(
        data.c,
        constraints=LinearConstraint(
            data.a,
            np.where(sense == SENSE_LE, -np.inf, rhs),
            np.where(sense == SENSE_GE, np.inf, rhs),
        ),
        integrality=data.is_integer.astype(int),
        bounds=Bounds(data.lower, data.upper),
        options={"time_limit": float(time_limit), "mip_rel_gap": float(gap)},
    )


def answer(res, constant: float) -> Answer:
    """The answer in a HiGHS result, the objective constant added back."""
    status = _STATUS_NAMES.get(res.status, "error")
    if res.status == 1:  # the time limit, with or without an incumbent
        status = STATUS_TIMEOUT if res.x is not None else STATUS_NO_INCUMBENT
    objective = None
    if res.x is not None and res.fun is not None:
        objective = float(res.fun) + constant
    bound = getattr(res, "mip_dual_bound", None)
    if bound is not None:
        bound = float(bound) + constant
    return Answer(status, res.x, objective, bound, res.message)


def write_solution(path: Path, data: MpsData, res, wall_time: float) -> None:
    text = solution_text(data.column_names, answer(res, data.objective_constant), wall_time)
    path.write_text(text, encoding="utf-8")


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
