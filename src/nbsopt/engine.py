"""Windowed kernel application over placement grids.

Computes raw impact fields (newly installed cells only), capped reductions,
population-weighted fairness fields, and reduced measures. One windowed-sum
routine, `correlate`, applies every kernel: the enumeration oracle runs it on
each decision unit's cell indicator, and the objective evaluation and
post-solve analysis run it on whole placements.

Boundary cells outside the grid contribute zero. Orientation is
cross-correlation (no kernel flip); all bundled kernels are symmetric so the
distinction is unobservable, but it is fixed for determinism. Pre-existing
installations are excluded from measure impacts (their effect is already part
of the observed fields) yet included in fairness, which tracks access to all
green space, old or new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .instance import Cell, Instance
from .kernels import Kernel


@dataclass(eq=False)
class Placement:
    """Per-NBS boolean occupancy grids (pre-existing cells included as True)."""

    masks: dict[str, np.ndarray]

    @classmethod
    def empty(cls, inst: Instance) -> "Placement":
        return cls({t: np.zeros(inst.dims.shape, dtype=bool) for t in inst.nbs_ids})

    @classmethod
    def do_nothing(cls, inst: Instance) -> "Placement":
        """Only the pre-existing installations, nothing new."""
        return cls({t: inst.pre_mask(t).copy() for t in inst.nbs_ids})

    @classmethod
    def from_new_cells(cls, inst: Instance, new_cells: Mapping[str, Iterable[Cell]]) -> "Placement":
        """Pre-existing cells plus the given newly installed cells."""
        placement = cls.do_nothing(inst)
        for t, cells in new_cells.items():
            mask = placement.masks[t]
            for i, j in cells:
                mask[i, j] = True
        return placement

    def new_mask(self, inst: Instance, nbs_id: str) -> np.ndarray:
        return self.masks[nbs_id] & ~inst.pre_mask(nbs_id)

    def new_cells(self, inst: Instance) -> dict[str, list[Cell]]:
        out: dict[str, list[Cell]] = {}
        for t in inst.nbs_ids:
            ii, jj = np.nonzero(self.new_mask(inst, t))
            out[t] = sorted(zip(ii.tolist(), jj.tolist()))
        return out

    def copy(self) -> "Placement":
        return Placement({t: m.copy() for t, m in self.masks.items()})


def correlate(field: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Centered windowed sum with zero padding outside the grid."""
    field = np.asarray(field, dtype=float)
    w, h = field.shape
    cw, ch = kernel.width // 2, kernel.height // 2
    out = np.zeros_like(field)
    for di in range(-cw, cw + 1):
        for dj in range(-ch, ch + 1):
            k = kernel.entries[cw + di, ch + dj]
            if k == 0.0:
                continue
            di0, di1 = max(0, -di), w - max(0, di)
            dj0, dj1 = max(0, -dj), h - max(0, dj)
            if di0 >= di1 or dj0 >= dj1:
                continue
            out[di0:di1, dj0:dj1] += k * field[di0 + di : di1 + di, dj0 + dj : dj1 + dj]
    return out


def impact_field(
    placement: Placement,
    kernels: Mapping[str, Kernel],
    pre_masks: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Summed kernel impact of newly installed cells for one measure.

    `kernels` maps NBS id to that type's kernel for the measure; cells in
    `pre_masks` contribute nothing.
    """
    z: np.ndarray | None = None
    for t, kernel in kernels.items():
        new = placement.masks[t] & ~np.asarray(pre_masks[t], dtype=bool)
        term = correlate(new.astype(float), kernel)
        z = term if z is None else z + term
    if z is None:
        raise ValueError("impact_field needs at least one kernel")
    return z


def clamp_reduction(z: np.ndarray, delta: float) -> np.ndarray:
    """Cap the raw impact at the achievable reduction."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return np.minimum(z, delta)


def fairness_field(
    placement: Placement,
    fairness_kernels: Mapping[str, Kernel],
    population: np.ndarray,
) -> np.ndarray:
    """Population-weighted accessibility field; pre-existing cells count too."""
    acc: np.ndarray | None = None
    for t, kernel in fairness_kernels.items():
        term = correlate(placement.masks[t].astype(float), kernel)
        acc = term if acc is None else acc + term
    if acc is None:
        raise ValueError("fairness_field needs at least one kernel")
    return np.asarray(population, dtype=float) * acc


def reduced_measure(observed: np.ndarray, zbar: np.ndarray) -> np.ndarray:
    """Observed field minus achieved reduction (not floored at zero)."""
    observed = np.asarray(observed, dtype=float)
    zbar = np.asarray(zbar, dtype=float)
    if observed.shape != zbar.shape:
        raise ValueError(f"shape mismatch: {observed.shape} vs {zbar.shape}")
    return observed - zbar


# --- Instance-level conveniences --------------------------------------------


def measure_impact(inst: Instance, placement: Placement, measure_id: str) -> np.ndarray:
    kernels = {t: inst.kernel(measure_id, t) for t in inst.nbs_ids}
    pre = {t: inst.pre_mask(t) for t in inst.nbs_ids}
    return impact_field(placement, kernels, pre)


def measure_reduction(inst: Instance, placement: Placement, measure_id: str) -> np.ndarray:
    z = measure_impact(inst, placement, measure_id)
    return clamp_reduction(z, inst.delta(measure_id))


def fairness(inst: Instance, placement: Placement) -> np.ndarray:
    return fairness_field(placement, inst.fairness_kernels, inst.population)
