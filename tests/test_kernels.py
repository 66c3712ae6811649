import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.engine import Placement, impact
from nbsopt.instance import UcMeasure
from nbsopt.kernels import (
    FAIRNESS_TABLE,
    KERNEL_TABLE,
    DEFAULT_MEASURE_IDS,
    DEFAULT_NBS_IDS,
    ImpactSpec,
    Kernel,
    KernelError,
    build_kernel,
    compute_big_m,
    default_kernel_set,
    derive_delta,
)


def ring_values(kernel: Kernel) -> list[float]:
    """Entry value per Chebyshev ring, asserting rings are constant."""
    half = kernel.width // 2
    values = []
    for d in range(half + 1):
        ring = [
            kernel.entries[i, j]
            for i in range(kernel.width)
            for j in range(kernel.height)
            if max(abs(i - half), abs(j - half)) == d
        ]
        assert max(ring) - min(ring) == 0.0
        values.append(ring[0])
    return values


class TestBuildKernel:
    def test_green_wall_tempmax_rings(self):
        k = build_kernel(ImpactSpec(center=2.70, edge=0.10, size=5))
        rings = ring_values(k)
        assert rings[0] == 2.70
        assert rings[2] == 0.10
        assert rings[1] == pytest.approx(1.40, abs=1e-12)

    def test_size_one_single_entry(self):
        k = build_kernel(ImpactSpec(center=7.5, edge=0.0, size=1))
        assert k.entries.shape == (1, 1)
        assert k.entries[0, 0] == 7.5

    def test_size_three_rings_by_hand(self):
        k = build_kernel(ImpactSpec(center=4.0, edge=1.0, size=3))
        expected = np.array([[1, 1, 1], [1, 4, 1], [1, 1, 1]], dtype=float)
        np.testing.assert_array_equal(k.entries, expected)

    def test_even_size_rejected(self):
        with pytest.raises(KernelError):
            build_kernel(ImpactSpec(center=1.0, edge=0.0, size=4))

    def test_edge_above_center_rejected(self):
        with pytest.raises(KernelError):
            ImpactSpec(center=1.0, edge=2.0, size=3)

    @pytest.mark.parametrize("size,center,edge", [(3, 5.0, 0.5), (7, 2.5, 0.1), (11, 10.0, 4.0)])
    def test_symmetry_and_decay(self, size, center, edge):
        k = build_kernel(ImpactSpec(center=center, edge=edge, size=size))
        np.testing.assert_array_equal(k.entries, np.flipud(k.entries))
        np.testing.assert_array_equal(k.entries, np.fliplr(k.entries))
        np.testing.assert_array_equal(k.entries, k.entries.T)
        rings = ring_values(k)
        assert all(a >= b for a, b in zip(rings, rings[1:]))
        assert rings[0] == center and rings[-1] == edge


class TestKernelType:
    def test_rejects_even_dims(self):
        with pytest.raises(KernelError):
            Kernel(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(KernelError):
            Kernel(np.array([[1.0, -0.1, 1.0]]).reshape(1, 3))

    def test_rejects_off_center_maximum(self):
        with pytest.raises(KernelError):
            Kernel(np.array([[5.0, 1.0, 0.0]]))

    def test_rectangular_allowed(self):
        k = Kernel(np.array([[0.5, 2.0, 0.5]]))
        assert (k.width, k.height) == (1, 3)
        assert k.center == 2.0


class TestDefaultSet:
    def test_every_size_edge_center_triple(self):
        kernels, fairness = default_kernel_set()
        for (t, u), (size, edge, center) in KERNEL_TABLE.items():
            k = kernels[(u, t)]
            assert (k.width, k.height) == (size, size)
            assert k.center == center
            assert k.entries[0, 0] == edge
        for t, (size, edge, center) in FAIRNESS_TABLE.items():
            k = fairness[t]
            assert (k.width, k.height) == (size, size)
            assert k.center == center
            if size > 1:
                assert k.entries[0, 0] == edge

    def test_covers_all_pairs(self):
        kernels, fairness = default_kernel_set()
        assert set(kernels) == {
            (u, t) for u in DEFAULT_MEASURE_IDS for t in DEFAULT_NBS_IDS
        }
        assert set(fairness) == set(DEFAULT_NBS_IDS)

    def test_green_roof_tempmin_is_seventy_percent_of_tempmax(self):
        assert KERNEL_TABLE[("GR", "TempMin")][2] == 0.7 * KERNEL_TABLE[("GR", "TempMax")][2]

    def test_urban_park_fairness_eleven_by_eleven(self):
        _, fairness = default_kernel_set()
        k = fairness["UP"]
        assert (k.width, k.height) == (11, 11)
        assert k.center == 10.0
        assert k.entries[0, 0] == 4.0


class TestDeriveDelta:
    def test_temperature_spot_value(self):
        field = np.array([[35.60, 10.0], [0.0, 20.0]])
        assert abs(derive_delta(UcMeasure("t", "C", field)) - 7.12) <= 1e-12

    def test_all_zero_field(self):
        assert derive_delta(UcMeasure("t", "C", np.zeros((3, 3)))) == 0.0

    def test_field_max_fifty(self):
        field = np.full((2, 5), 3.0)
        field[1, 4] = 50.0
        assert derive_delta(UcMeasure("t", "C", field)) == pytest.approx(10.0, abs=1e-12)


class TestBigM:
    def test_single_kernel_sum(self):
        k = Kernel(np.array([[1.0, 2, 1], [2, 4, 2], [1, 2, 1]]))
        assert compute_big_m([k]) == 16.0

    def test_max_of_two(self):
        k1 = Kernel(np.array([[1.0, 2, 1], [2, 4, 2], [1, 2, 1]]))
        k2 = Kernel(np.array([[1.0] * 3, [1, 1, 1], [1, 1, 1]]))
        assert compute_big_m([k1, k2]) == 16.0

    def test_one_by_one(self):
        assert compute_big_m([Kernel(np.array([[5.0]]))]) == 5.0

    def test_no_kernels_rejected(self):
        with pytest.raises(KernelError):
            compute_big_m([])

    def test_bounds_every_impact_value(self):
        # randomized: z never exceeds the big-M on any binary placement
        rng = np.random.default_rng(42)
        kernels, _ = default_kernel_set()
        for u in DEFAULT_MEASURE_IDS:
            m = compute_big_m([kernels[(u, t)] for t in DEFAULT_NBS_IDS])
            for _ in range(20):
                shape = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
                # the default kernels on a grid of this shape, nothing pre-existing
                inst = generate_synthetic(0, GridDims(*shape), pre_existing_fraction=0.0)
                masks = {}
                taken = np.zeros(shape, dtype=bool)
                for t in DEFAULT_NBS_IDS:
                    pick = (rng.random(shape) < 0.3) & ~taken
                    taken |= pick
                    masks[t] = pick
                z = impact(inst, Placement(masks))[inst.measure_ids.index(u)]
                assert z.max() <= m + 1e-12
