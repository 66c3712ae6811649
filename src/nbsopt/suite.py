"""Seeded desk-scale instance suites, small enough for the exhaustive oracle.

Instances are generated with high forbidden fractions so the number of free
decision units stays under the oracle cap; seeds whose instances exceed the
cap are skipped deterministically. Every third seed lowers the forbidden
fraction and clusters the first NBS type, so all-or-nothing units show up in
the mix when components of the right size happen to form.
"""

from __future__ import annotations

import numpy as np

from .clustering import partition_instance, with_clusters
from .generator import generate_synthetic
from .instance import GridDims, Instance, validate_instance
from .solve import DEFAULT_UNIT_CAP, count_decision_units


def desk_instance(seed: int, unit_cap: int = DEFAULT_UNIT_CAP) -> Instance | None:
    """One small random instance, or None when it exceeds the unit cap."""
    rng = np.random.default_rng(seed + 1_000_003)
    side = int(rng.integers(4, 7))
    nbs_count = int(rng.integers(1, 3))
    measure_count = int(rng.integers(1, 3))
    cluster_attempt = seed % 3 == 0
    if cluster_attempt:
        forbidden = float(rng.uniform(0.30, 0.50))
    else:
        forbidden = float(rng.uniform(0.55, 0.85))
    pre = float(rng.uniform(0.0, 0.08))

    inst = generate_synthetic(
        seed,
        GridDims(side, side),
        nbs_count=nbs_count,
        measure_count=measure_count,
        forbidden_fraction=forbidden,
        pre_existing_fraction=pre,
    )
    if cluster_attempt:
        inst = with_clusters(inst, partition_instance(inst, [inst.nbs_ids[0]]))
        validate_instance(inst)
    if count_decision_units(inst) > unit_cap:
        return None
    return inst


def desk_suite(
    count: int, start_seed: int = 0, unit_cap: int = DEFAULT_UNIT_CAP
) -> list[tuple[int, Instance]]:
    """First `count` seeds at or above `start_seed` that fit the unit cap."""
    out: list[tuple[int, Instance]] = []
    seed = start_seed
    attempts = 0
    while len(out) < count:
        if attempts > max(40 * count, 200):
            raise RuntimeError(
                f"could not build {count} desk instances within {attempts} attempts"
            )
        inst = desk_instance(seed, unit_cap)
        if inst is not None:
            out.append((seed, inst))
        seed += 1
        attempts += 1
    return out
