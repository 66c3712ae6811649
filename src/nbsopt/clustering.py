"""Connected-component clustering of contiguous candidate cells.

Contiguous eligible regions (4-connected) within a size band become clusters
that must be installed all-or-nothing; everything else stays individually
placeable. By default only urban parks are clustered, since they are the one
bundled type that needs contiguous ground.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .instance import Cell, Instance

DEFAULT_MIN_SIZE = 5
DEFAULT_MAX_SIZE = 50
DEFAULT_CLUSTERED_NBS = ("UP",)


def label_components(mask: np.ndarray) -> list[list[Cell]]:
    """Maximal 4-connected regions of True cells, as sorted coordinate lists.

    Components are ordered by their first cell in row-major order, which makes
    the output independent of any internal labeling order.

    The True cells of each row form runs, numbered in row-major order of their
    first cell. Runs that touch across adjacent rows are joined in vectorised
    rounds: each round hooks the larger root of every touching pair onto the
    smaller one, then points every run at its root, until every pair shares
    its root. A root is always the smallest run of its set, so a component's
    root is the run holding its first cell. One stable sort of the cells by
    root groups them, each component's in row-major order.
    """
    mask = np.asarray(mask, dtype=bool)
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]  # a run starts where its left neighbour is False
    run = np.cumsum(starts).reshape(mask.shape) - 1  # the run of each True cell
    n_runs = int(starts.sum())
    if not n_runs:
        return []
    touching = mask[:-1] & mask[1:]  # cells whose lower neighbour is True
    # each touching pair of runs, once: the pairs come in row-major order of
    # their cells, so their keys are sorted, and each is kept where it
    # differs from its left neighbour
    pair = run[:-1][touching] * n_runs + run[1:][touching]
    pair = np.concatenate((pair[:1], pair[1:][pair[1:] != pair[:-1]]))
    upper, lower = np.divmod(pair, n_runs)
    root = np.arange(n_runs)
    while (root[upper] != root[lower]).any():
        a, b = root[upper], root[lower]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while (root[root] != root).any():
            root = root[root]
    ii, jj = np.nonzero(mask)
    labels = root[run[ii, jj]]
    order = np.argsort(labels, kind="stable")
    cells = list(zip(ii[order].tolist(), jj[order].tolist()))
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(cells)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def build_partition(
    inst: Instance,
    nbs_id: str,
    min_size: int = DEFAULT_MIN_SIZE,
    max_size: int = DEFAULT_MAX_SIZE,
) -> list[list[Cell]]:
    """Cluster one NBS type's eligible cells by connected component size.

    Components inside [min_size, max_size] become clusters. Smaller and larger
    components are not clustered; their cells remain individually placeable.
    """
    if min_size < 1 or max_size < 1:
        raise ValueError(f"cluster sizes must be >= 1, got min {min_size} and max {max_size}")
    if min_size > max_size:
        raise ValueError(f"min_size {min_size} > max_size {max_size}")
    return [
        component
        for component in label_components(inst.eligible[inst.nbs_ids.index(nbs_id)])
        if min_size <= len(component) <= max_size
    ]


def partition_instance(
    inst: Instance,
    nbs_ids: list[str] | None = None,
    min_size: int = DEFAULT_MIN_SIZE,
    max_size: int = DEFAULT_MAX_SIZE,
) -> dict[str, list[list[Cell]]]:
    """The clusters of the given NBS types (default: urban parks, when
    present), keyed by NBS id in sorted order, as `Instance.clusters` holds
    them."""
    if nbs_ids is None:
        nbs_ids = [t for t in DEFAULT_CLUSTERED_NBS if t in inst.nbs_ids]
    return {t: build_partition(inst, t, min_size, max_size) for t in sorted(nbs_ids)}


def with_clusters(inst: Instance, clusters: dict[str, list[list[Cell]]]) -> Instance:
    """Copy of the instance annotated with `clusters`."""
    return replace(inst, clusters=clusters)
