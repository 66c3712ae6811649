"""Windowed kernel application over placement grids.

One windowed-sum routine, `correlate`, applies every kernel. Three field
functions apply an instance's kernels to a whole placement: the raw impact on
every measure (newly installed cells only), the reduction it achieves (that
impact capped at each measure's `delta`), both (measures, width, height) in
measure order, and the population-weighted fairness field. The objective
evaluation and the placement check call them; the post-solve analysis reads
the fields the evaluation kept. The enumeration oracle runs `correlate` on
each decision unit's cell indicator, sums those increments as it descends,
and scores each leaf with the evaluation's formula (`model.objective_terms`)
and the checker's tolerance.

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
        return cls(dict(zip(inst.nbs_ids, inst.pre_existing.copy())))

    @classmethod
    def from_new_cells(cls, inst: Instance, new_cells: Mapping[str, Iterable[Cell]]) -> "Placement":
        """Pre-existing cells plus the given newly installed cells."""
        placement = cls.do_nothing(inst)
        for t, cells in new_cells.items():
            mask = placement.masks[t]
            for i, j in cells:
                mask[i, j] = True
        return placement

    def new_masks(self, inst: Instance) -> np.ndarray:
        """The newly installed cells, (types, width, height) in catalog order."""
        return np.stack([self.masks[t] for t in inst.nbs_ids]) & ~inst.pre_existing

    def new_cells(self, inst: Instance) -> dict[str, list[Cell]]:
        out: dict[str, list[Cell]] = {}
        for t, new in zip(inst.nbs_ids, self.new_masks(inst)):
            ii, jj = np.nonzero(new)
            out[t] = sorted(zip(ii.tolist(), jj.tolist()))
        return out


def correlate(field: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Centered windowed sum with zero padding outside the grid.

    The field is padded once with a zero margin the kernel's half-width wide.
    Each nonzero kernel entry, in row-major order, then adds its multiple of
    the padded field's window at that entry's offset. A padding cell adds a
    signed zero, which leaves a sum unchanged, so each cell is the sum of its
    in-grid terms in kernel order.
    """
    field = np.asarray(field, dtype=float)
    w, h = field.shape
    entries = kernel.entries
    cw, ch = kernel.width // 2, kernel.height // 2
    padded = np.zeros((w + kernel.width - 1, h + kernel.height - 1))
    padded[cw : cw + w, ch : ch + h] = field
    out = np.zeros_like(field)
    for a, b in zip(*np.nonzero(entries)):
        out += entries[a, b] * padded[a : a + w, b : b + h]
    return out


def impact(inst: Instance, placement: Placement) -> np.ndarray:
    """Summed kernel impact of the newly installed cells on each measure,
    (measures, width, height) in measure order; pre-existing cells contribute
    nothing."""
    out = np.zeros((len(inst.measures), *inst.dims.shape))
    for t, new in zip(inst.nbs_ids, placement.new_masks(inst)):
        if new.any():  # an empty mask adds an all-zero field
            out += [correlate(new, inst.kernels[(u, t)]) for u in inst.measure_ids]
    return out


def reduction(inst: Instance, placement: Placement) -> np.ndarray:
    """Achieved reduction of each measure: its impact capped at its `delta`,
    (measures, width, height) in measure order."""
    if (inst.deltas < 0).any():
        raise ValueError(f"delta must be >= 0, got {float(inst.deltas.min())}")
    return np.minimum(impact(inst, placement), inst.deltas[:, None, None])


def fairness(inst: Instance, placement: Placement) -> np.ndarray:
    """Population-weighted accessibility field; pre-existing cells count too."""
    access = np.zeros(inst.dims.shape)
    for t in inst.nbs_ids:
        if placement.masks[t].any():  # an empty mask adds an all-zero field
            access += correlate(placement.masks[t], inst.fairness_kernels[t])
    return inst.population * access
