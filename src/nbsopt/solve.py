"""Solving: exhaustive enumeration oracle and MILP solver bridge.

The oracle enumerates every feasible placement of the free decision units
(clusters, plus per-cell type choices). Each unit is a set of arrays: its
cover, its cost, and its impact and fairness increments from
`engine.correlate` over its cell indicator, as the direct evaluation
computes them. The descent keeps running sums of them and scores each leaf
with the evaluation's formula, `model.objective_terms`, under the checker's
`zavg >= 0` tolerance, FEAS_TOL; its optimum goes to the check the
external backend's answers go to. The oracle never touches the MILP or its
big-M linearization, which makes it an independent check of the MILP. It is
exact but exponential, so it is capped by a decision-unit budget.

The external backend solves the MILP with a MILP solver. Every solve builds
one model, the compact model that `model.build_compact_model` builds from the
instance: x columns only for the eligible (type, cell) pairs, the oracle's
cell units and the cluster cells, no big-M rows, no z, zavg or f columns, and
y columns only for the guard rows of the measures whose `zavg >= 0` domain
can bind. A forbidden or pre-existing pair's x is fixed, so it has no column,
and `placement_from_values` reads a placement as the pre-existing cells plus
the pairs whose x is set. The paper model is not built. The compact model
has the paper model's optimum, so its status and bound are the paper
model's. The route decides only how the model reaches a solver. By default
the bundled HiGHS solves it in-process, through `solver_cli.solve_mps`,
which `python -m nbsopt.solver_cli` also runs on the MPS file it reads; no
name is formatted and no file is written unless `workdir` is set, and then
the model and the answer are written there as a solver command would leave
them. The relative gap applies to the solver's own objective, which leaves
out the model's constant.

A command template (the solver_cmd setting or the NBSOPT_SOLVER_CMD
environment variable) with {model}, {solution}, {timelimit} and {gap}
placeholders swaps in any other solver: the model is written to a
free-format MPS file, the command runs as a subprocess, and
`parse_solution_file` reads the solution file it leaves behind: '# key
value' metadata lines (solver, status, objective, bound, walltime, message)
and one 'name value' line per column. This module owns that format:
`solution_text` writes it (for `solver_cli` and for the in-process solve's
--workdir copy) and `parse_solution_file` reads it. Each route returns an
`Answer` over the model's columns, the objective constant included.
`check_claim` is the one gate from a claim to a trusted result, for the
oracle's optimum, for the placement `_verify` reads from an answer, and for
the result file that `nbsopt report` reads back; in a solve, a claim that
fails is an error result. A command that fails or outruns its grace period
raises SolverFailed, and `solve_external` turns it into an error result.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine
from .instance import Cell, Instance
from .model import (
    FEAS_TOL,
    OBJECTIVE_MATCH_TOL,
    BuiltModel,
    InfeasiblePlacement,
    Normalizers,
    ObjectiveBreakdown,
    build_compact_model,
    evaluate_solution,
    objective_normalizers,
    objective_terms,
    values_close,
)
from .mps import export_interchange

logger = logging.getLogger(__name__)

DEFAULT_TIME_LIMIT = 1800.0
DEFAULT_UNIT_CAP = 16
SOLVER_CMD_ENV = "NBSOPT_SOLVER_CMD"
SUBPROCESS_GRACE = 60.0

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "feasible-timeout"
STATUS_NO_INCUMBENT = "no-incumbent"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"


class OracleCapExceeded(ValueError):
    """Instance has more free decision units than the oracle is allowed."""


@dataclass
class SolveConfig:
    backend: str = "oracle"
    time_limit: float = DEFAULT_TIME_LIMIT
    gap: float = 0.0
    solver_cmd: str | None = None
    unit_cap: int = DEFAULT_UNIT_CAP
    workdir: Path | None = None

    def __post_init__(self):
        for name in ("time_limit", "gap"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too; infinity passes
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.unit_cap < 0:
            raise ValueError(f"unit_cap must be >= 0, got {self.unit_cap}")

    def resolved_solver_cmd(self) -> str | None:
        """The solver command template, or None to solve in-process."""
        return self.solver_cmd or os.environ.get(SOLVER_CMD_ENV) or None


@dataclass
class SolveResult:
    status: str
    backend: str
    placement: engine.Placement | None = None
    objective: float | None = None
    bound: float | None = None
    wall_time: float = 0.0
    breakdown: ObjectiveBreakdown | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_TIMEOUT)


# --- Exhaustive oracle -------------------------------------------------------


def _free_units(inst: Instance) -> list[tuple[tuple, str, list[Cell]]]:
    """Free decision units as (slot label, NBS id, cells), in canonical order.

    Clusters come first, one slot each. Then come the eligible unclustered
    (cell, type) pairs, cells row-major and types in catalog order; the pairs
    of one cell share its slot.
    """
    units: list[tuple[tuple, str, list[Cell]]] = []
    free = inst.eligible.copy()
    for t, free_t in zip(inst.nbs_ids, free):
        for q, group in enumerate(inst.clusters_for(t)):
            units.append((("cluster", t, q), t, list(group)))
            free_t[tuple(np.transpose(group))] = False
    for i, j, k in zip(*(a.tolist() for a in np.nonzero(np.moveaxis(free, 0, -1)))):
        units.append((("cell", i, j), inst.nbs_ids[k], [(i, j)]))
    return units


def _unit_arrays(inst: Instance, units: list[tuple[tuple, str, list[Cell]]]):
    """Per unit, as arrays over the units: its cover mask over the flattened
    grid, its impact increments stacked per measure, its fairness increment
    and its cost. Each increment is a windowed sum of the unit's cell
    indicator, as the evaluation computes it."""
    cover = np.zeros((len(units), *inst.dims.shape), dtype=bool)
    dz = np.zeros((len(units), len(inst.measures), inst.dims.n_cells))
    df, cost = np.zeros(len(units)), np.zeros(len(units))
    unit_cost = {t.id: t.cost for t in inst.nbs}
    for k, (_, t, cells) in enumerate(units):
        cover[k][tuple(np.transpose(cells))] = True
        dz[k] = [engine.correlate(cover[k], inst.kernels[(u, t)]).ravel()
                 for u in inst.measure_ids]
        df[k] = (inst.population * engine.correlate(cover[k], inst.fairness_kernels[t])).sum()
        cost[k] = unit_cost[t] * len(cells)
    return cover.reshape(len(units), inst.dims.n_cells), dz, df.tolist(), cost.tolist()


def count_decision_units(inst: Instance) -> int:
    """Free binary choices: one per cluster plus one per eligible (cell, type)."""
    return len(_free_units(inst))


def solve_oracle(inst: Instance, unit_cap: int = DEFAULT_UNIT_CAP) -> SolveResult:
    """Enumerate all feasible placements and return a true optimum.

    Each leaf is scored by `objective_terms`, the evaluation's own formula,
    from running sums of the units' arrays, and kept only if every measure's
    mean reduced value passes `check_placement`'s `zavg >= 0` test, to within
    FEAS_TOL. Ties on the objective are broken by the lexicographically
    smallest state vector over the canonical slot order (clusters first, then
    cells in row-major order, types in catalog order). The optimum, or the
    infeasible outcome, goes to `check_claim` at a tolerance of 1e-9.
    """
    t0 = time.perf_counter()
    units = _free_units(inst)
    if len(units) > unit_cap:
        raise OracleCapExceeded(
            f"instance has {len(units)} decision units, oracle cap is {unit_cap}"
        )
    cover, dz, df, cost = _unit_arrays(inst, units)
    # a slot is a run of units sharing a label: its units exclude each other
    starts = [k for k, unit in enumerate(units) if k == 0 or unit[0] != units[k - 1][0]]
    starts.append(len(units))

    norms = objective_normalizers(inst)
    fields = inst.fields.reshape(len(inst.measures), -1)
    deltas = inst.deltas[:, None]
    budget = inst.budget * (1 + FEAS_TOL) + FEAS_TOL
    z = np.zeros(fields.shape)
    occupied = np.zeros(inst.dims.n_cells, dtype=bool)
    picked: list[int] = []
    best_obj, best_units = np.inf, None

    def descend(k: int, cost_sum: float, f_sum: float) -> None:
        nonlocal best_obj, best_units, z, occupied
        if k == len(starts) - 1:
            terms = objective_terms(inst, norms, fields - np.minimum(z, deltas), cost_sum, f_sum)
            in_domain = min(terms["avg_value"].values()) >= -FEAS_TOL
            if in_domain and terms["total"] < best_obj:
                best_obj, best_units = terms["total"], picked.copy()
            return
        descend(k + 1, cost_sum, f_sum)  # leave the slot unused
        for n in range(starts[k], starts[k + 1]):
            if cost_sum + cost[n] > budget or (occupied & cover[n]).any():
                continue
            picked.append(n)
            occupied ^= cover[n]  # disjoint from `occupied`, so ^= adds it and takes it away
            z += dz[n]
            descend(k + 1, cost_sum + cost[n], f_sum + df[n])
            z -= dz[n]
            occupied ^= cover[n]
            picked.pop()

    descend(0, 0.0, norms.fairness_min)  # the fairness total of do-nothing

    if best_units is None:
        # the do-nothing leaf always exists, so this happens only when the
        # instance itself is infeasible via the zavg domain
        claim = SolveResult(STATUS_INFEASIBLE, "oracle",
                            message="no placement satisfies the nonnegative-average domain")
    else:
        claim = SolveResult(STATUS_OPTIMAL, "oracle", engine.Placement.do_nothing(inst), best_obj)
        for n in best_units:
            claim.placement.masks[units[n][1]] |= cover[n].reshape(inst.dims.shape)
    result = _trusted(inst, norms, claim, 1e-9)
    result.wall_time = time.perf_counter() - t0
    return result


# --- External solver bridge --------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """A solver's answer as the solution file states it: a status name, the
    column vector, and objective and bound with the objective constant
    included; `x`, `objective` and `bound` are None where the solver has none.
    A `no-incumbent` answer has no vector or objective, but may have a bound.
    The bundled HiGHS also gives its branch-and-bound node count, MIP gap and
    primal-dual integral, which the file does not hold.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float | None
    message: str = ""
    mip_node_count: int | None = None
    mip_gap: float | None = None
    primal_dual_integral: float | None = None


class SolverFailed(RuntimeError):
    """The solver command failed or outran its grace period."""


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


def parse_solution_file(path: Path, model: BuiltModel) -> Answer:
    """The answer a solution file states over the model's columns.

    '# key value' lines give the status, objective, bound and message; a
    missing or malformed objective or bound reads as none reported. Each
    'name value' line sets one column; malformed lines and unknown names
    warn and are skipped, and columns without a value read 0. A file with no
    'name value' line states no vector: its `x` is None.
    """
    index = {name: k for k, name in enumerate(model.layout.column_names())}
    x = np.zeros(model.n_variables)
    has_vector = False
    meta: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split(None, 1)
            if len(tokens) == 2:
                meta[tokens[0]] = tokens[1].strip()
            continue
        tokens = line.split()
        if len(tokens) != 2:
            logger.warning("skipping malformed solution line: %s", raw)
            continue
        try:
            value = float(tokens[1])
        except ValueError:
            logger.warning("skipping non-numeric solution line: %s", raw)
            continue
        has_vector = True
        if tokens[0] in index:
            x[index[tokens[0]]] = value
        else:
            logger.warning("solution contains unknown variable %r; ignored", tokens[0])
    reported: dict[str, float] = {}
    for key in ("objective", "bound"):
        with contextlib.suppress(KeyError, ValueError):
            reported[key] = float(meta[key])
    return Answer(
        meta.get("status", ""),
        x if has_vector else None,
        reported.get("objective"),
        reported.get("bound"),
        meta.get("message", ""),
    )


def placement_from_values(
    inst: Instance, model: BuiltModel, values: np.ndarray
) -> engine.Placement:
    """Rebuild a placement from a column vector: the pre-existing cells, and
    the (type, cell) pair of every x column above 0.5."""
    layout = model.layout
    placed = np.zeros(inst.pre_existing.shape, dtype=bool)
    placed.flat[layout.x_pairs[values[layout.x_base : layout.y_base] > 0.5]] = True
    return engine.Placement(dict(zip(inst.nbs_ids, placed | inst.pre_existing)))


class ClaimRejected(ValueError):
    """A claim that contradicts itself or its placement's re-evaluation."""


def check_claim(inst: Instance, norms: Normalizers, claim: SolveResult, rel: float) -> SolveResult:
    """The one gate from a claim to a trusted result: a backend's answer, or
    a result file that `report` reads back.

    An infeasible claim passes through, and a no-incumbent one becomes the
    do-nothing placement. Any other status but optimal and feasible-timeout
    is rejected, and so is such a claim with no placement. The placement is
    checked against every constraint family and its objective re-computed
    with `norms`. A claimed objective or bound must be finite; the objective
    must lie within `rel` of the re-computed one, and the bound not above it
    by more than `rel`. Only an optimal claim without a bound takes the
    objective as its bound. Raises InfeasiblePlacement for a broken
    constraint family and ClaimRejected for any other contradiction.
    """
    status, objective, bound = claim.status, claim.objective, claim.bound
    for name, value in (("objective", objective), ("bound", bound)):
        if value is not None and not math.isfinite(value):
            raise ClaimRejected(f"solver reported a non-finite {name} {value!r}")
    if status == STATUS_INFEASIBLE:
        return SolveResult(status, claim.backend, bound=bound, wall_time=claim.wall_time,
                           message=claim.message)
    placement, message = claim.placement, ""
    if status == STATUS_NO_INCUMBENT:
        status, placement = STATUS_TIMEOUT, engine.Placement.do_nothing(inst)
        message = "no incumbent within the time limit; reporting do-nothing"
    elif status not in (STATUS_OPTIMAL, STATUS_TIMEOUT):
        raise ClaimRejected(f"solver reported status {status!r}: {claim.message}")
    elif placement is None:
        raise ClaimRejected(f"solver reported status {status!r} but no column values")
    breakdown = evaluate_solution(inst, placement, norms=norms)
    total = breakdown.total
    if objective is not None and not values_close(total, objective, rel):
        raise ClaimRejected(f"objective mismatch: solver {objective!r}, re-evaluated {total!r}")
    # a lower bound above the placement's own objective contradicts it
    if bound is not None and bound > total and not values_close(total, bound, rel):
        raise ClaimRejected(f"bound mismatch: solver {bound!r} exceeds the re-evaluated {total!r}")
    if bound is None and status == STATUS_OPTIMAL:
        bound = total
    return SolveResult(status, claim.backend, placement, total, bound, claim.wall_time,
                       breakdown, message)


def _trusted(inst: Instance, norms: Normalizers, claim: SolveResult, rel: float) -> SolveResult:
    """`check_claim`'s result, or the error result that says why the claim failed."""
    try:
        return check_claim(inst, norms, claim, rel)
    except InfeasiblePlacement as exc:
        families = ", ".join(sorted({v.family for v in exc.violations}))
        message = f"solver placement violates: {families}"
    except ClaimRejected as exc:
        message = str(exc)
    return SolveResult(STATUS_ERROR, claim.backend, message=message)


def _verify(inst: Instance, model: BuiltModel, answer: Answer) -> SolveResult:
    """The one check of a solver's answer on `model`: the placement is read
    from the x columns of `answer.x`, if it has one, and the claim checked
    with the model's normalizers."""
    placement = None if answer.x is None else placement_from_values(inst, model, answer.x)
    claim = SolveResult(answer.status, "external", placement, answer.objective, answer.bound,
                        message=answer.message)
    return _trusted(inst, model.norms, claim, OBJECTIVE_MATCH_TOL)


def _solve_in_process(model: BuiltModel, config: SolveConfig) -> Answer:
    """The bundled HiGHS's answer on the model. With `config.workdir` set,
    the model and the answer are written there as a solver command leaves
    them."""
    # imported on the first solve, so that `import nbsopt` loads no HiGHS binding
    from . import solver_cli

    started = time.perf_counter()
    answer = solver_cli.solve_mps(model, config.time_limit, config.gap)
    solved = time.perf_counter() - started
    logger.info(
        "HiGHS on the compact model: %s in %.4f s, %s nodes, MIP gap %s, "
        "primal-dual integral %s",
        answer.status, solved, answer.mip_node_count, answer.mip_gap,
        answer.primal_dual_integral,
    )
    if config.workdir is not None:
        workdir = Path(config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        export_interchange(model, workdir / "model.mps")
        text = solution_text(model.layout.column_names(), answer, solved)
        (workdir / "solution.sol").write_text(text, encoding="utf-8")
    return answer


def _solve_with_command(model: BuiltModel, config: SolveConfig, template: str) -> Answer:
    """Export MPS, run the solver command, and read the solution file it
    writes; SolverFailed when the command fails or outruns its grace period."""
    with tempfile.TemporaryDirectory(prefix="nbsopt-solve-") as scratch:
        workdir = Path(scratch if config.workdir is None else config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        model_path = workdir / "model.mps"
        solution_path = workdir / "solution.sol"
        export_interchange(model, model_path)

        cmd = template.format(
            model=shlex.quote(str(model_path)),
            solution=shlex.quote(str(solution_path)),
            timelimit=config.time_limit,
            gap=config.gap,
        )
        logger.info("invoking external solver: %s", cmd)
        # grace covers model parsing and solution IO on top of the solver's
        # own time limit; scale it with the file size so huge models are not
        # killed while still being read; no limit means no timeout
        grace = SUBPROCESS_GRACE + 2.0 * model_path.stat().st_size / 1e6
        timeout = config.time_limit + grace if math.isfinite(config.time_limit) else None
        try:
            proc = subprocess.run(
                shlex.split(cmd), capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise SolverFailed("external solver exceeded its grace period") from None
        if proc.returncode != 0 or not solution_path.exists():
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise SolverFailed(f"solver exited with {proc.returncode}: {tail}")
        # the path goes first and by position: the benchmark's trace reads it
        return parse_solution_file(solution_path, model)


def solve_external(inst: Instance, config: SolveConfig | None = None) -> SolveResult:
    """Build the compact model, solve it in-process with HiGHS or with the
    configured solver command, and verify the answer: the one place a
    solver's answer becomes a result. The in-process solve writes the model
    and its answer to `config.workdir` when that is set; a solver command
    writes its own."""
    config = config or SolveConfig(backend="external")
    t0 = time.perf_counter()
    template = config.resolved_solver_cmd()
    model = build_compact_model(inst)
    logger.info(
        "compact model: %d rows, %d columns, %d nonzeros (rows/nonzeros per family: %s), "
        "%d fixed (cell, type) pairs left out, guard binaries per guarded measure %s, "
        "built in %.4f s", *model.a.shape, model.a.nnz,
        ", ".join(f"{b.tag} {len(b.labels)}/{len(b.indices)}" for b in model.constraints),
        model.layout.x_column.size - len(model.layout.x_pairs), model.guarded,
        time.perf_counter() - t0,
    )
    try:
        if template is None:
            answer = _solve_in_process(model, config)
        else:
            answer = _solve_with_command(model, config, template)
    except SolverFailed as exc:
        result = SolveResult(status=STATUS_ERROR, backend="external", message=str(exc))
    else:
        result = _verify(inst, model, answer)
    result.wall_time = time.perf_counter() - t0
    return result


def solve(inst: Instance, config: SolveConfig | None = None) -> SolveResult:
    config = config or SolveConfig()
    if config.backend == "oracle":
        return solve_oracle(inst, unit_cap=config.unit_cap)
    if config.backend == "external":
        return solve_external(inst, config)
    raise ValueError(f"unknown backend {config.backend!r}")
