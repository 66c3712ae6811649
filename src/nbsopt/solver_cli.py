"""Bundled HiGHS solver: the entry point the in-process solve calls, and a
subprocess that reads MPS, solves with HiGHS and writes a solution file.

Usage: python -m nbsopt.solver_cli MODEL.mps SOLUTION.sol TIMELIMIT [--gap G]

Both go through `solve_mps`, which takes a MilpModel, the CompactModel sliced
from one, or the MpsData read from a file: each is a MipProblem. `answer`
reads an `Answer` from the HiGHS result. The in-process solve verifies that
answer; this program writes it as a solution file (`solution_text`), which
the solve that runs a solver command reads back into an `Answer`.

The solution file starts with '# key value' metadata lines (solver, status,
objective, bound, walltime) followed by one 'name value' line per column.
Statuses: optimal, feasible-timeout, no-incumbent, infeasible, unbounded,
error. This is the reference implementation of the solver-side contract; any
external solver wrapped to the same file formats can replace it.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import SENSE_GE, SENSE_LE, MipProblem
from .mps import MpsData, read_mps

# solution-file status names for scipy's HiGHS status codes; code 1, the
# time limit, names one of two statuses and is mapped in `answer`
_STATUS_NAMES = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass(frozen=True)
class Answer:
    """A solver's answer as the solution file states it: a status name, the
    column vector, and objective and bound with the objective constant
    included; `x`, `objective` and `bound` are None where the solver has none.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float | None
    message: str = ""


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
        status = "feasible-timeout" if res.x is not None else "no-incumbent"
    objective = None
    if res.x is not None and res.fun is not None:
        objective = float(res.fun) + constant
    bound = getattr(res, "mip_dual_bound", None)
    if bound is not None:
        bound = float(bound) + constant
    return Answer(status, res.x, objective, bound, res.message)


def solution_text(column_names: list[str], answer: Answer, wall_time: float) -> str:
    """The solution file for an answer over the named columns."""
    lines = ["# solver nbsopt-highs-cli", f"# status {answer.status}"]
    if answer.objective is not None:
        lines.append(f"# objective {answer.objective!r}")
    if answer.bound is not None:
        lines.append(f"# bound {answer.bound!r}")
    lines.append(f"# walltime {float(wall_time)!r}")
    if answer.message:
        lines.append(f"# message {answer.message}")
    if answer.x is not None:
        for name, value in zip(column_names, answer.x):
            lines.append(f"{name} {float(value)!r}")
    return "\n".join(lines) + "\n"


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
