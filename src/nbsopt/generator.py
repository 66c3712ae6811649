"""Synthetic instance generation for tests and benchmarks.

Observed fields are sums of a few random Gaussian bumps over uniform noise,
clipped at zero, which gives heatmap-like surfaces with distinct peaks. All
randomness flows from the single seed, so a given call is fully reproducible.
"""

from __future__ import annotations

import numpy as np

from . import kernels as kf
from .instance import (
    GridDims,
    Instance,
    Masks,
    NbsType,
    ObjectiveWeights,
    UcMeasure,
    validate_instance,
)

# Typical field magnitudes used to scale the synthetic surfaces.
PEAK_SCALES = {
    kf.TEMP_MAX: 35.6,
    kf.TEMP_MIN: 25.0,
    kf.PM25: 34.0,
    kf.PM10: 68.0,
}

# Fraction of the all-cells-most-expensive cost used as the budget range.
BUDGET_RANGE = (0.30, 0.50)


def default_nbs_catalog(resolution: float = 10.0, count: int = 4) -> list[NbsType]:
    """Built-in NBS types with per-m2 annual costs scaled to per-cell costs."""
    if not 1 <= count <= len(kf.NBS_CATALOG):
        raise ValueError(f"nbs count must be in [1, {len(kf.NBS_CATALOG)}], got {count}")
    area = resolution * resolution
    return [
        NbsType(id=tid, name=name, cost=cost_per_m2 * area)
        for tid, name, cost_per_m2 in kf.NBS_CATALOG[:count]
    ]


def bumpy_field(
    rng: np.random.Generator, shape: tuple[int, int], peak_scale: float
) -> np.ndarray:
    """Random nonnegative surface: Gaussian bumps plus uniform noise."""
    w, h = shape
    field = rng.uniform(0.0, 0.1 * peak_scale, size=shape)
    ii, jj = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    for _ in range(int(rng.integers(2, 6))):
        ci = rng.uniform(0, w)
        cj = rng.uniform(0, h)
        sigma = rng.uniform(0.08, 0.30) * max(w, h)
        amp = rng.uniform(0.3, 1.0) * peak_scale
        field = field + amp * np.exp(
            -((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * sigma * sigma)
        )
    return np.clip(field, 0.0, None)


def _sample_cells(rng: np.random.Generator, eligible_flat: np.ndarray, count: int) -> np.ndarray:
    """Up to `count` distinct flat cell indices drawn from `eligible_flat`."""
    count = min(count, eligible_flat.size)
    if count == 0:
        return eligible_flat[:0]
    return rng.choice(eligible_flat, size=count, replace=False)


def generate_synthetic(
    seed: int,
    dims: GridDims,
    nbs_count: int = 4,
    measure_count: int = 4,
    forbidden_fraction: float = 0.3,
    pre_existing_fraction: float = 0.07,
) -> Instance:
    """Generate a validated random instance, deterministic in `seed`.

    Forbidden cells are drawn independently per NBS type; pre-existing cells
    avoid that type's forbidden cells and cells already occupied by another
    type. The budget is drawn uniformly between 30% and 50% of the cost of
    covering the whole grid with the most expensive type, and all objective
    terms get equal weight.
    """
    if not 0 <= forbidden_fraction <= 1 or not 0 <= pre_existing_fraction <= 1:
        raise ValueError("fractions must lie in [0, 1]")
    if forbidden_fraction + pre_existing_fraction > 1:
        raise ValueError("forbidden and pre-existing fractions must sum to <= 1")
    if not 1 <= measure_count <= len(kf.DEFAULT_MEASURE_IDS):
        raise ValueError(
            f"measure count must be in [1, {len(kf.DEFAULT_MEASURE_IDS)}], got {measure_count}"
        )

    rng = np.random.default_rng(seed)
    shape = dims.shape
    n_cells = dims.n_cells

    nbs = default_nbs_catalog(dims.resolution, nbs_count)
    measure_ids = kf.DEFAULT_MEASURE_IDS[:measure_count]
    measures = [
        UcMeasure(
            id=u,
            unit=kf.MEASURE_UNITS[u],
            field=bumpy_field(rng, shape, PEAK_SCALES[u]),
        )
        for u in measure_ids
    ]

    kernel_map, fairness_map = kf.default_kernel_set(
        nbs_ids=[t.id for t in nbs], measure_ids=measure_ids
    )

    def cells(flat: np.ndarray) -> set[tuple[int, int]]:
        return {(int(k) // dims.height, int(k) % dims.height) for k in flat}

    n_forbidden = int(round(forbidden_fraction * n_cells))
    n_pre = int(round(pre_existing_fraction * n_cells))
    forbidden_flat = [_sample_cells(rng, np.arange(n_cells), n_forbidden) for _ in nbs]

    pre_existing: dict[str, set[tuple[int, int]]] = {}
    occupied = np.zeros(n_cells, dtype=bool)
    for t, banned in zip(nbs, forbidden_flat):
        blocked = occupied.copy()
        blocked[banned] = True
        chosen = _sample_cells(rng, np.flatnonzero(~blocked), n_pre)
        pre_existing[t.id] = cells(chosen)
        occupied[chosen] = True
    forbidden = {t.id: cells(banned) for t, banned in zip(nbs, forbidden_flat)}

    population = bumpy_field(rng, shape, 1.0) + 1e-6
    population = population / population.sum()

    max_cost = max(t.cost for t in nbs)
    budget = float(rng.uniform(*BUDGET_RANGE) * max_cost * n_cells)

    n_terms = 2 * len(measures) + 2
    w = 1.0 / n_terms
    weights = ObjectiveWeights(
        peak={u.id: w for u in measures},
        avg={u.id: w for u in measures},
        cost=w,
        fairness=w,
    )

    inst = Instance(
        dims=dims,
        nbs=nbs,
        measures=measures,
        kernels=kernel_map,
        fairness_kernels=fairness_map,
        masks=Masks(forbidden=forbidden, pre_existing=pre_existing),
        population=population,
        budget=budget,
        weights=weights,
        clusters=None,
    )
    validate_instance(inst)
    return inst
