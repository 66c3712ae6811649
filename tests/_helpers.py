"""Shared test helpers: independent oracles and small instance builders.

The oracles here are deliberately naive (triple loops, BFS) and stay
independent of the production code paths they check.
"""

from __future__ import annotations

import csv
import shlex
import sys
from collections import deque
from pathlib import Path

import numpy as np

import nbsopt
from nbsopt import GridDims, Instance, Masks, NbsType, ObjectiveWeights, UcMeasure
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement
from nbsopt.instance import validate_instance
from nbsopt.kernels import TEMP_MAX, Kernel, default_kernel_set
from nbsopt.model import MilpModel, linearization_big_m
from nbsopt.solve import SolveConfig, SolveResult

# The directory holding the package under test, for child processes to import
# it from whether or not PYTHONPATH names it.
SRC = Path(nbsopt.__file__).resolve().parents[1]


def solver_cli_template() -> str:
    """Solver command template running the bundled `python -m nbsopt.solver_cli`."""
    return (
        f"env PYTHONPATH={shlex.quote(str(SRC))} {shlex.quote(sys.executable)}"
        " -m nbsopt.solver_cli {model} {solution} {timelimit} --gap {gap}"
    )


def solve_paper_model(inst: Instance, model: MilpModel, config: SolveConfig) -> SolveResult:
    """The verified result of the bundled HiGHS on the paper model itself,
    with its six big-M rows per cell: the reference for the compact model
    that the in-process solve hands HiGHS."""
    from nbsopt import solver_cli
    from nbsopt.solve import _verify

    return _verify(inst, model, solver_cli.solve_mps(model, config.time_limit, config.gap))


def spy_on_highs(monkeypatch) -> list[dict]:
    """Record what every in-process HiGHS call is given, then make the call.

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
        return real(options, **arrays)

    monkeypatch.setattr(solver_cli, "_run_highs", spy)
    return calls


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


def variable_vector(inst: Instance, model: MilpModel, placement: Placement) -> np.ndarray:
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
    for ui, u in enumerate(layout.measure_ids):
        z = engine.measure_impact(inst, placement, u)
        d = inst.delta(u)
        reduced = inst.measure_by_id(u).field - np.minimum(z, d)
        for i in range(layout.width):
            for j in range(layout.height):
                y, zbar, _ = clamp_witness(float(z[i, j]), d, big_m[u])
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

