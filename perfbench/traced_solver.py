"""Solver command for traced runs: the steps of `nbsopt.solver_cli.main`, timed.

Usage: python perfbench/traced_solver.py MODEL.mps SOLUTION.sol TIMELIMIT

It reads the model with `nbsopt.mps.read_mps`, solves it with
`nbsopt.solver_cli.solve_mps` and writes the solution with
`nbsopt.solver_cli.write_solution`, as the bundled solver does, then writes
`SOLUTION.sol.spans.json` beside the solution: the seconds of each step, the
solution size, the branch-and-bound node count, the process's peak resident
memory and the file `nbsopt` was imported from.
"""

import json
import resource
import sys
import time
from pathlib import Path

import nbsopt
from nbsopt.mps import read_mps
from nbsopt.solver_cli import solve_mps, write_solution


def main(argv: list[str]) -> int:
    model, solution, time_limit = Path(argv[0]), Path(argv[1]), float(argv[2])
    t0 = time.perf_counter()
    data = read_mps(model)
    t1 = time.perf_counter()
    res = solve_mps(data, time_limit)
    t2 = time.perf_counter()
    write_solution(solution, data, res, t2 - t0)
    t3 = time.perf_counter()
    spans = {
        "nbsopt_file": str(Path(nbsopt.__file__).resolve()),
        "mps.read_mps_s": t1 - t0,
        "solver_cli.solve_mps_s": t2 - t1,
        "solver_cli.write_solution_s": t3 - t2,
        "solver_cli.solution_bytes": solution.stat().st_size,
        "solver_cli.mip_nodes": int(getattr(res, "mip_node_count", None) or 0),
        "solver_cli.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(f"{solution}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
