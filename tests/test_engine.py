import numpy as np
import pytest

from nbsopt.engine import (
    Placement,
    clamp_reduction,
    correlate,
    fairness_field,
    impact_field,
    measure_impact,
    reduced_measure,
)
from nbsopt.kernels import Kernel, compute_big_m, default_kernel_set

from _helpers import make_instance, naive_correlate


def random_kernel(rng, max_half=2, rectangular=False):
    w = 2 * int(rng.integers(0, max_half + 1)) + 1
    h = 2 * int(rng.integers(0, max_half + 1)) + 1 if rectangular else w
    entries = rng.random((w, h))
    entries[w // 2, h // 2] = entries.max() + 0.5
    return Kernel(entries)


class TestCorrelate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_window_sum(self, seed):
        rng = np.random.default_rng(seed)
        field = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        kernel = random_kernel(rng, rectangular=True)
        np.testing.assert_allclose(
            correlate(field, kernel), naive_correlate(field, kernel.entries), atol=1e-12
        )


class TestImpactField:
    def test_zero_placement_zero_impact(self):
        inst = make_instance(np.ones((4, 4)))
        z = measure_impact(inst, Placement.empty(inst), "M")
        np.testing.assert_array_equal(z, np.zeros((4, 4)))

    def test_single_center_cell_reproduces_kernel(self):
        kernel = Kernel(np.array([[0.1, 0.2, 0.3], [0.4, 5.0, 0.6], [0.7, 0.8, 0.9]]))
        inst = make_instance(np.ones((5, 5)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        z = measure_impact(inst, placement, "M")
        assert z[2, 2] == 5.0
        # the gather-form window sum leaves a point-reflected footprint; for
        # the symmetric bundled kernels the reflection is invisible
        np.testing.assert_allclose(z[1:4, 1:4], kernel.entries[::-1, ::-1], atol=1e-15)
        np.testing.assert_allclose(
            z, naive_correlate(placement.masks["GW"].astype(float), kernel.entries),
            atol=1e-15,
        )
        assert z[0, 0] == 0.0

    def test_symmetric_kernel_footprint_matches_entries(self):
        kernel = Kernel(np.array([[0.5, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 0.5]]))
        inst = make_instance(np.ones((5, 5)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        z = measure_impact(inst, placement, "M")
        np.testing.assert_allclose(z[1:4, 1:4], kernel.entries, atol=1e-15)

    def test_pre_existing_cells_contribute_nothing(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        with_pre = make_instance(np.ones((5, 5)), kernel=kernel, pre_existing={(2, 3)})
        without = make_instance(np.ones((5, 5)), kernel=kernel)
        placement_new = {"GW": [(2, 2)]}
        z_with = measure_impact(
            with_pre, Placement.from_new_cells(with_pre, placement_new), "M"
        )
        z_without = measure_impact(
            without, Placement.from_new_cells(without, placement_new), "M"
        )
        # identical despite the occupied neighbor: its impact is already in the field
        np.testing.assert_array_equal(z_with, z_without)

    def test_boundary_zero_padding(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        inst = make_instance(np.ones((3, 3)), kernel=kernel)
        placement = Placement.from_new_cells(inst, {"GW": [(0, 0)]})
        z = measure_impact(inst, placement, "M")
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
            measure_impact(inst, both, "M"),
            measure_impact(inst, p1, "M") + measure_impact(inst, p2, "M"),
            atol=1e-12,
        )

    def test_monotone_in_added_cells(self):
        rng = np.random.default_rng(13)
        kernel = random_kernel(rng)
        inst = make_instance(np.ones((6, 6)), kernel=kernel)
        p = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
        q = Placement.from_new_cells(inst, {"GW": [(2, 2), (4, 4)]})
        assert (measure_impact(inst, q, "M") >= measure_impact(inst, p, "M") - 1e-15).all()

    def test_bounded_by_big_m(self):
        rng = np.random.default_rng(17)
        kernels, _ = default_kernel_set()
        per_measure = {t: kernels[("PM10", t)] for t in ("GW", "GR", "ST", "UP")}
        m = compute_big_m(per_measure.values())
        for _ in range(10):
            shape = (8, 8)
            taken = np.zeros(shape, dtype=bool)
            masks = {}
            for t in per_measure:
                pick = (rng.random(shape) < 0.4) & ~taken
                taken |= pick
                masks[t] = pick
            z = impact_field(
                Placement(masks), per_measure, {t: np.zeros(shape, bool) for t in per_measure}
            )
            assert z.max() <= m + 1e-12

    def test_translation_equivariance_in_interior(self):
        kernel = Kernel(np.array([[0.5, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 0.5]]))
        inst = make_instance(np.ones((9, 9)), kernel=kernel)
        za = measure_impact(inst, Placement.from_new_cells(inst, {"GW": [(3, 3)]}), "M")
        zb = measure_impact(inst, Placement.from_new_cells(inst, {"GW": [(5, 4)]}), "M")
        np.testing.assert_allclose(za[2:5, 2:5], zb[4:7, 3:6], atol=1e-15)


class TestClampReduction:
    def test_below_cap_untouched(self):
        assert clamp_reduction(np.array([[5.0]]), 7.0)[0, 0] == 5.0

    def test_above_cap_clamped(self):
        assert clamp_reduction(np.array([[9.0]]), 7.0)[0, 0] == 7.0

    def test_matches_elementwise_min_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.random((6, 6)) * 10
        delta = float(np.median(z))
        expected = np.array(
            [[min(v, delta) for v in row] for row in z]
        )
        np.testing.assert_array_equal(clamp_reduction(z, delta), expected)

    def test_idempotent_and_dominated(self):
        rng = np.random.default_rng(4)
        z = rng.random((5, 5)) * 3
        once = clamp_reduction(z, 1.5)
        np.testing.assert_array_equal(clamp_reduction(once, 1.5), once)
        assert (once <= z).all() and (once <= 1.5).all()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            clamp_reduction(np.ones((2, 2)), -0.1)


class TestFairnessField:
    def test_zero_population_zero_fairness(self):
        pop = np.full((4, 4), 1 / 12.0)
        pop[1, 1] = 0.0
        pop[0, :] = pop[0, :]  # keep sum handling to make_instance normalization
        pop = pop / pop.sum()
        inst = make_instance(np.ones((4, 4)), population=pop)
        placement = Placement.from_new_cells(inst, {"GW": [(1, 1), (1, 2)]})
        f = fairness_field(placement, inst.fairness_kernels, inst.population)
        assert f[1, 1] == 0.0

    def test_pre_existing_counts_for_fairness_not_impact(self):
        kernel = Kernel(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
        fairness_kernel = Kernel(np.array([[2.0]]))
        inst = make_instance(
            np.ones((4, 4)), kernel=kernel, fairness_kernel=fairness_kernel,
            pre_existing={(2, 2)},
        )
        do_nothing = Placement.do_nothing(inst)
        z = measure_impact(inst, do_nothing, "M")
        f = fairness_field(do_nothing, inst.fairness_kernels, inst.population)
        assert z.sum() == 0.0  # impact excludes pre-existing
        assert f[2, 2] > 0.0  # fairness includes it

    def test_uniform_population_park_profile(self):
        kernels, fairness_kernels = default_kernel_set()
        up = fairness_kernels["UP"]
        inst = make_instance(np.ones((15, 15)), fairness_kernel=up)
        placement = Placement.from_new_cells(inst, {"GW": [(7, 7)]})
        f = fairness_field(placement, inst.fairness_kernels, inst.population)
        np.testing.assert_allclose(
            f[2:13, 2:13], up.entries / inst.dims.n_cells, atol=1e-15
        )


class TestReducedMeasure:
    def test_zero_reduction_returns_field(self):
        a = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(reduced_measure(a, np.zeros((3, 3))), a)

    def test_peak_thirty_three_reduced_to_twenty_seven(self):
        a = np.full((5, 5), 20.0)
        a[2, 2] = 33.0
        zbar = np.zeros((5, 5))
        zbar[2, 2] = 6.0
        assert reduced_measure(a, zbar).max() == 27.0

    def test_matches_subtract_oracle(self):
        rng = np.random.default_rng(8)
        a, zbar = rng.random((4, 6)), rng.random((4, 6))
        expected = np.array(
            [[a[i, j] - zbar[i, j] for j in range(6)] for i in range(4)]
        )
        np.testing.assert_array_equal(reduced_measure(a, zbar), expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reduced_measure(np.ones((2, 2)), np.ones((3, 2)))
