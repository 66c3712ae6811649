import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.engine import (
    Placement,
    correlate,
    fairness,
    impact,
    reduction,
)
from nbsopt.kernels import PM10, Kernel, compute_big_m, default_kernel_set

from _helpers import make_instance, naive_correlate


def random_kernel(rng, max_half=2, rectangular=False):
    w = 2 * int(rng.integers(0, max_half + 1)) + 1
    h = 2 * int(rng.integers(0, max_half + 1)) + 1 if rectangular else w
    entries = rng.random((w, h))
    entries[w // 2, h // 2] = entries.max() + 0.5
    return Kernel(entries)


# (seed, grid shape, kernel shape): random shapes where None, then a kernel
# wider than its grid both ways and a rectangular kernel
CORRELATE_CASES = [pytest.param(seed, None, None, id=str(seed)) for seed in range(6)] + [
    pytest.param(6, (3, 4), (9, 11), id="wider-than-grid"),
    pytest.param(7, (8, 6), (3, 7), id="rectangular"),
]


class TestCorrelate:
    @pytest.mark.parametrize("seed, grid, shape", CORRELATE_CASES)
    def test_matches_naive_window_sum(self, seed, grid, shape):
        # the naive sum adds each cell's terms in the same order, so the two
        # agree to the bit
        rng = np.random.default_rng(seed)
        field = rng.random(grid or (int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        if shape is None:
            kernel = random_kernel(rng, rectangular=True)
        else:
            entries = rng.random(shape)
            entries[shape[0] // 2, shape[1] // 2] = entries.max() + 0.5
            kernel = Kernel(entries)
        np.testing.assert_array_equal(
            correlate(field, kernel), naive_correlate(field, kernel.entries)
        )


class TestImpactField:
    def test_zero_placement_zero_impact(self):
        inst = make_instance(np.ones((4, 4)))
        z = impact(inst, Placement.empty(inst))[0]
        np.testing.assert_array_equal(z, np.zeros((4, 4)))

    def test_single_center_cell_reproduces_kernel(self):
        kernel = Kernel(np.array([[0.1, 0.2, 0.3], [0.4, 5.0, 0.6], [0.7, 0.8, 0.9]]))
        inst = make_instance(np.ones((5, 5)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        z = impact(inst, placement)[0]
        assert z[2, 2] == 5.0
        # the gather-form window sum leaves a point-reflected footprint; for
        # the symmetric bundled kernels the reflection is invisible
        np.testing.assert_allclose(z[1:4, 1:4], kernel.entries[::-1, ::-1], atol=1e-15)
        np.testing.assert_array_equal(
            z, naive_correlate(placement.masks["GW"].astype(float), kernel.entries)
        )
        assert z[0, 0] == 0.0

    def test_symmetric_kernel_footprint_matches_entries(self):
        kernel = Kernel(np.array([[0.5, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 0.5]]))
        inst = make_instance(np.ones((5, 5)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        z = impact(inst, placement)[0]
        np.testing.assert_allclose(z[1:4, 1:4], kernel.entries, atol=1e-15)

    def test_pre_existing_cells_contribute_nothing(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        with_pre = make_instance(np.ones((5, 5)), kernel=kernel, pre_existing={(2, 3)})
        without = make_instance(np.ones((5, 5)), kernel=kernel)
        placement_new = {"GW": [(2, 2)]}
        z_with = impact(
            with_pre, Placement.from_new_cells(with_pre, placement_new)
        )[0]
        z_without = impact(
            without, Placement.from_new_cells(without, placement_new)
        )[0]
        # identical despite the occupied neighbor: its impact is already in the field
        np.testing.assert_array_equal(z_with, z_without)

    def test_boundary_zero_padding(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        inst = make_instance(np.ones((3, 3)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(0, 0)]})
        z = impact(inst, placement)[0]
        assert z[0, 0] == 2.0 and z[1, 1] == 1.0
        assert z.sum() == kernel.entries[1:, 1:].sum()

    def test_linearity_on_disjoint_supports(self):
        rng = np.random.default_rng(11)
        kernel = random_kernel(rng)
        inst = make_instance(np.ones((7, 7)), kernel=kernel)
        p1 = Placement.from_new_cells(inst, {"GW": [(1, 1), (5, 2)]})
        p2 = Placement.from_new_cells(inst, {"GW": [(3, 6), (6, 6)]})
        both = Placement.from_new_cells(inst, {"GW": [(1, 1), (5, 2), (3, 6), (6, 6)]})
        np.testing.assert_allclose(
            impact(inst, both)[0],
            impact(inst, p1)[0] + impact(inst, p2)[0],
            atol=1e-12,
        )

    def test_monotone_in_added_cells(self):
        rng = np.random.default_rng(13)
        kernel = random_kernel(rng)
        inst = make_instance(np.ones((6, 6)), kernel=kernel)
        p = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        q = Placement.from_new_cells(inst, {"GW": [(2, 2), (4, 4)]})
        assert (impact(inst, q)[0] >= impact(inst, p)[0] - 1e-15).all()

    def test_bounded_by_big_m(self):
        rng = np.random.default_rng(17)
        inst = generate_synthetic(0, GridDims(8, 8), pre_existing_fraction=0.0)
        m = compute_big_m([inst.kernels[(PM10, t)] for t in inst.nbs_ids])
        for _ in range(10):
            shape = (8, 8)
            taken = np.zeros(shape, dtype=bool)
            masks = {}
            for t in inst.nbs_ids:
                pick = (rng.random(shape) < 0.4) & ~taken
                taken |= pick
                masks[t] = pick
            z = impact(inst, Placement(masks))[inst.measure_ids.index(PM10)]
            assert z.max() <= m + 1e-12

    def test_translation_equivariance_in_interior(self):
        kernel = Kernel(np.array([[0.5, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 0.5]]))
        inst = make_instance(np.ones((9, 9)), kernel=kernel)
        za = impact(inst, Placement.from_new_cells(inst, {"GW": [(3, 3)]}))[0]
        zb = impact(inst, Placement.from_new_cells(inst, {"GW": [(5, 4)]}))[0]
        np.testing.assert_allclose(za[2:5, 2:5], zb[4:7, 3:6], atol=1e-15)


class TestClampReduction:
    """`reduction` caps the impact at the measure's `delta`."""

    def test_below_cap_untouched(self):
        inst = make_instance(np.ones((1, 1)), kernel=Kernel(np.array([[5.0]])), delta=7.0)
        zbar = reduction(inst, Placement.from_new_cells(inst, {"GW": [(0, 0)]}))[0]
        assert zbar[0, 0] == 5.0

    def test_above_cap_clamped(self):
        inst = make_instance(np.ones((1, 1)), kernel=Kernel(np.array([[9.0]])), delta=7.0)
        zbar = reduction(inst, Placement.from_new_cells(inst, {"GW": [(0, 0)]}))[0]
        assert zbar[0, 0] == 7.0

    def test_matches_elementwise_min_oracle(self):
        rng = np.random.default_rng(2)
        kernel = random_kernel(rng)
        probe = make_instance(np.ones((6, 6)), kernel=kernel)
        cells = [(i, j) for i in range(6) for j in range(6) if rng.random() < 0.3]
        z = impact(probe, Placement.from_new_cells(probe, {"GW": cells}))[0]
        delta = float(np.median(z))
        inst = make_instance(np.ones((6, 6)), kernel=kernel, delta=delta)
        expected = np.array(
            [[min(v, delta) for v in row] for row in z]
        )
        zbar = reduction(inst, Placement.from_new_cells(inst, {"GW": cells}))[0]
        np.testing.assert_array_equal(zbar, expected)

    def test_idempotent_and_dominated(self):
        rng = np.random.default_rng(4)
        inst = make_instance(np.ones((5, 5)), kernel=random_kernel(rng), delta=1.5)
        placement = Placement.from_new_cells(inst, {"GW": [(1, 1), (2, 3), (4, 4)]})
        z = impact(inst, placement)[0]
        once = reduction(inst, placement)[0]
        np.testing.assert_array_equal(np.minimum(once, 1.5), once)
        assert (once <= z).all() and (once <= 1.5).all()

    def test_negative_delta_rejected(self):
        inst = make_instance(np.ones((2, 2)))
        inst.measures[0].delta = -0.1  # load-time validation rejects this
        with pytest.raises(ValueError):
            reduction(inst, Placement.empty(inst))[0]

    def test_every_measure_is_capped_at_its_own_delta(self):
        # four measures, one delta given and three derived from their fields
        inst = generate_synthetic(3, GridDims(6, 5), nbs_count=2, measure_count=4,
                                  forbidden_fraction=0.2, pre_existing_fraction=0.1)
        inst.measures[2].delta = 0.05
        rng = np.random.default_rng(5)
        free = inst.eligible & (rng.random(inst.eligible.shape) < 0.5)
        free[1] &= ~free[0]
        placement = Placement(dict(zip(inst.nbs_ids, free | inst.pre_existing)))
        z, zbar = impact(inst, placement), reduction(inst, placement)
        assert z.shape == zbar.shape == (4, 6, 5)
        assert len(set(inst.deltas.tolist())) == 4
        for k, u in enumerate(inst.measures):
            np.testing.assert_array_equal(
                z[k], sum(correlate(new, inst.kernels[(u.id, t)])
                          for t, new in zip(inst.nbs_ids, free)))
            np.testing.assert_array_equal(zbar[k], np.minimum(z[k], u.effective_delta()))
        assert (z > zbar).any() and (z == zbar).any()


class TestFairnessField:
    def test_zero_population_zero_fairness(self):
        pop = np.full((4, 4), 1 / 12.0)
        pop[1, 1] = 0.0
        pop[0, :] = pop[0, :]  # keep sum handling to make_instance normalization
        pop = pop / pop.sum()
        inst = make_instance(np.ones((4, 4)), population=pop)
        placement = Placement.from_new_cells(inst, {"GW": [(1, 1), (1, 2)]})
        f = fairness(inst, placement)
        assert f[1, 1] == 0.0

    def test_pre_existing_counts_for_fairness_not_impact(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        fairness_kernel = Kernel(np.array([[2.0]]))
        inst = make_instance(
            np.ones((4, 4)), kernel=kernel, fairness_kernel=fairness_kernel,
            pre_existing={(2, 2)},
        )
        do_nothing = Placement.do_nothing(inst)
        z = impact(inst, do_nothing)[0]
        f = fairness(inst, do_nothing)
        assert z.sum() == 0.0  # impact excludes pre-existing
        assert f[2, 2] > 0.0  # fairness includes it

    def test_uniform_population_park_profile(self):
        kernels, fairness_kernels = default_kernel_set()
        up = fairness_kernels["UP"]
        inst = make_instance(np.ones((15, 15)), fairness_kernel=up)
        placement = Placement.from_new_cells(inst, {"GW": [(7, 7)]})
        f = fairness(inst, placement)
        np.testing.assert_allclose(
            f[2:13, 2:13], up.entries / inst.dims.n_cells, atol=1e-15
        )


class TestReducedMeasure:
    """The reduced measure is the observed field minus `reduction`."""

    def test_zero_reduction_returns_field(self):
        a = np.arange(9.0).reshape(3, 3)
        inst = make_instance(a)
        reduced = a - reduction(inst, Placement.empty(inst))[0]
        np.testing.assert_array_equal(reduced, a)

    def test_peak_thirty_three_reduced_to_twenty_seven(self):
        a = np.full((5, 5), 20.0)
        a[2, 2] = 33.0
        inst = make_instance(a, kernel=Kernel(np.array([[6.0]])))
        zbar = reduction(inst, Placement.from_new_cells(inst, {"GW": [(2, 2)]}))[0]
        assert (a - zbar).max() == 27.0

    def test_matches_subtract_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.random((4, 6))
        inst = make_instance(a, kernel=random_kernel(rng, max_half=1))
        zbar = reduction(inst, Placement.from_new_cells(inst, {"GW": [(1, 2), (3, 5)]}))[0]
        expected = np.array(
            [[a[i, j] - zbar[i, j] for j in range(6)] for i in range(4)]
        )
        np.testing.assert_array_equal(a - zbar, expected)
