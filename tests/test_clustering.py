import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nbsopt import GridDims, generate_synthetic
from nbsopt.clustering import (
    build_partition,
    label_components,
    partition_instance,
    with_clusters,
)
from nbsopt.instance import validate_instance

from _helpers import flood_fill_components, make_instance


class TestLabelComponents:
    def test_all_zero_mask(self):
        assert label_components(np.zeros((4, 4), dtype=bool)) == []

    def test_diagonal_cells_are_separate(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        components = label_components(mask)
        assert len(components) == 2
        assert components == flood_fill_components(mask)

    def test_l_shape_single_component(self):
        mask = np.zeros((5, 5), dtype=bool)
        for c in [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]:
            mask[c] = True
        components = label_components(mask)
        assert len(components) == 1
        assert len(components[0]) == 6
        assert components == flood_fill_components(mask)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((int(rng.integers(3, 12)), int(rng.integers(3, 12)))) < 0.45
        assert label_components(mask) == flood_fill_components(mask)

    def test_matches_flood_fill_oracle_at_300x300(self):
        # thousands of components, the size of `nbsopt gen --size l`
        mask = np.random.default_rng(300).random((300, 300)) < 0.45
        components = label_components(mask)
        assert len(components) > 1000
        assert components == flood_fill_components(mask)

    @settings(max_examples=200, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(0, 14), st.integers(0, 14))))
    def test_matches_flood_fill_under_hypothesis(self, mask):
        assert label_components(mask) == flood_fill_components(mask)

    @pytest.mark.parametrize("mask", [
        np.ones((1, 9), dtype=bool),
        np.array([[True, False, True, True, False, True]]),
        np.ones((9, 1), dtype=bool),
        np.array([[True], [False], [True], [True]]),
        np.indices((7, 8)).sum(axis=0) % 2 == 0,  # checkerboard: every cell alone
        np.zeros((5, 6), dtype=bool),
        np.ones((5, 6), dtype=bool),
        np.zeros((0, 4), dtype=bool),
    ], ids=["1xN", "1xN-gaps", "Nx1", "Nx1-gaps", "checkerboard", "empty", "full", "no-rows"])
    def test_matches_flood_fill_on_edge_shapes(self, mask):
        assert label_components(mask) == flood_fill_components(mask)

    @pytest.mark.parametrize("side", [5, 8, 21, 101])
    def test_a_spiral_is_one_component(self, side):
        # a path winding clockwise inwards with a gap between its turns, so
        # that its rows join only at the corners
        mask = np.zeros((side, side), dtype=bool)
        lengths = [side] + [n for n in range(side - 1, 0, -2) for _ in range(2)]
        i, j = 0, -1
        for k, length in enumerate(lengths):
            di, dj = [(0, 1), (1, 0), (0, -1), (-1, 0)][k % 4]
            for _ in range(length):
                i, j = i + di, j + dj
                mask[i, j] = True
        components = label_components(mask)
        assert len(components) == 1
        assert components == flood_fill_components(mask)

    def test_partition_property(self):
        rng = np.random.default_rng(99)
        mask = rng.random((10, 10)) < 0.5
        components = label_components(mask)
        cells = [c for comp in components for c in comp]
        assert len(cells) == len(set(cells)) == int(mask.sum())
        assert {c for c in cells} == {tuple(c) for c in np.argwhere(mask)}

    def test_scan_order_invariance(self):
        # the component sets must not depend on labeling order: compare
        # against the transposed problem
        rng = np.random.default_rng(5)
        mask = rng.random((6, 9)) < 0.4
        direct = {frozenset(c) for c in label_components(mask)}
        transposed = {
            frozenset((j, i) for i, j in comp) for comp in label_components(mask.T)
        }
        assert direct == transposed


class TestBuildPartition:
    def make_line_instance(self, length, width=12, height=12):
        # one horizontal run of `length` eligible cells, everything else forbidden
        cells = {(5, j) for j in range(length)}
        all_cells = {(i, j) for i in range(width) for j in range(height)}
        return make_instance(
            np.ones((width, height)), forbidden=all_cells - cells
        )

    def test_component_of_four_stays_free(self):
        inst = self.make_line_instance(4)
        clusters = build_partition(inst, "GW")
        assert clusters == []

    def test_component_of_five_becomes_cluster(self):
        inst = self.make_line_instance(5)
        clusters = build_partition(inst, "GW")
        assert len(clusters) == 1
        assert len(clusters[0]) == 5

    def test_component_of_fifty_becomes_cluster(self):
        inst = make_instance(
            np.ones((10, 60)),
            forbidden={(i, j) for i in range(10) for j in range(60)}
            - {(i, j) for i in range(5) for j in range(10)},
        )
        clusters = build_partition(inst, "GW")
        assert len(clusters) == 1
        assert len(clusters[0]) == 50

    def test_component_of_sixty_stays_free(self):
        inst = make_instance(
            np.ones((10, 60)),
            forbidden={(i, j) for i in range(10) for j in range(60)}
            - {(i, j) for i in range(6) for j in range(10)},
        )
        clusters = build_partition(inst, "GW")
        assert clusters == []

    def test_pre_existing_cells_never_clustered(self):
        cells = {(5, j) for j in range(6)}
        all_cells = {(i, j) for i in range(12) for j in range(12)}
        inst = make_instance(
            np.ones((12, 12)),
            forbidden=all_cells - cells - {(0, 0)},
            pre_existing={(5, 0)},
        )
        clusters = build_partition(inst, "GW")
        # the run shrinks to 5 once the pre-existing cell is excluded
        assert len(clusters) == 1
        assert (5, 0) not in clusters[0]

    def test_min_above_max_rejected(self):
        inst = self.make_line_instance(5)
        with pytest.raises(ValueError):
            build_partition(inst, "GW", min_size=10, max_size=5)

    def test_cluster_sizes_within_bounds(self):
        inst = generate_synthetic(21, GridDims(20, 20), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.05)
        clusters = build_partition(inst, "GW")
        for cluster in clusters:
            assert 5 <= len(cluster) <= 50


class TestPartitionInstance:
    def test_defaults_to_urban_parks_only(self):
        inst = generate_synthetic(4, GridDims(10, 10), nbs_count=4, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.0)
        assert set(partition_instance(inst)) == {"UP"}

    def test_no_urban_parks_no_entries(self):
        inst = generate_synthetic(4, GridDims(6, 6), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.0)
        assert partition_instance(inst) == {}

    def test_annotated_instance_validates(self):
        inst = generate_synthetic(8, GridDims(15, 15), nbs_count=4, measure_count=1,
                                  forbidden_fraction=0.6, pre_existing_fraction=0.05)
        clusters = partition_instance(inst, ["UP", "GW"])
        assert list(clusters) == ["GW", "UP"]  # sorted, as Instance.clusters holds them
        annotated = with_clusters(inst, clusters)
        assert annotated.clusters is clusters
        validate_instance(annotated)
        for t, groups in annotated.clusters.items():
            for group in groups:
                assert 5 <= len(group) <= 50
