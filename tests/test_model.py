from collections import Counter

import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement, fairness
from nbsopt.instance import ObjectiveWeights
from nbsopt.kernels import compute_big_m
from nbsopt.model import (
    InfeasiblePlacement,
    _format_labels,
    _rows,
    _stack,
    build_model,
    check_placement,
    evaluate_solution,
    expected_variable_count,
    impact_bounds,
    linearization_big_m,
    objective_normalizers,
    values_close,
)
from nbsopt.solve import solve_oracle
from nbsopt.suite import desk_suite

from _helpers import (
    clamp_witness,
    cluster_demo_instance,
    constraint_residuals,
    impact_bounds_from_rows,
    make_instance,
    to_scipy,
    variable_vector,
)


class TestModelShape:
    def test_one_by_one_counts(self):
        inst = make_instance(np.array([[10.0]]), kernel=None)
        model = build_model(inst)
        assert model.n_variables == 7
        assert model.n_constraints == 12
        tags = {b.tag: len(b.labels) for b in model.constraints if len(b.labels)}
        assert tags == {
            "one_type": 1, "budget": 1, "conv": 1, "bigm": 6,
            "peak": 1, "avg": 1, "fairness": 1,
        }

    def test_two_by_two_two_types_counts(self):
        inst = generate_synthetic(0, GridDims(2, 2), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        model = build_model(inst)
        kinds = [name.split("_")[0] for name in model.layout.column_names()]
        assert Counter(kinds)["x"] == 8 and Counter(kinds)["y"] == 4
        assert sum(model.is_integer[k] for k, kind in enumerate(kinds) if kind == "x") == 8
        tags = {b.tag: len(b.labels) for b in model.constraints}
        assert tags["conv"] == 4
        assert tags["bigm"] == 24

    @pytest.mark.parametrize("seed", [0, 3])
    def test_variable_count_closed_form(self, seed):
        inst = generate_synthetic(seed, GridDims(7, 6), nbs_count=4, measure_count=3,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.05)
        inst = with_clusters(inst, partition_instance(inst, ["UP", "ST"]))
        model = build_model(inst)
        assert model.n_variables == expected_variable_count(inst)

    def test_forbidden_and_pre_existing_rows(self):
        inst = make_instance(np.ones((2, 2)), forbidden={(0, 0)}, pre_existing={(1, 1)})
        model = build_model(inst)
        tags = {b.tag: len(b.labels) for b in model.constraints}
        assert tags["forbidden"] == 1 and tags["pre_existing"] == 1

    def test_variable_name_scheme(self):
        inst = make_instance(np.ones((2, 3)))
        model = build_model(inst)
        layout = model.layout
        names = layout.column_names()
        h = layout.height
        assert names[layout.x_base + 1 * h + 2] == "x_t0_i1_j2"
        assert names[layout.zbar_base + 0 * h + 1] == "zbar_u0_i0_j1"
        assert names[layout.zmax_base] == "zmax_u0"
        assert names[layout.f_base + 1 * h + 0] == "f_i1_j0"


class TestFormatLabels:
    @pytest.mark.parametrize("name_format, labels", [
        ("x_t{}_i{}_j{}", np.array([[0, 9, 10], [99, 100, 1234], [1234, 0, 9]])),
        ("forbid_t{}_i{}_j{}", np.zeros((0, 3), dtype=np.int64)),
        ("budget", np.zeros((1, 0), dtype=np.int64)),
        ("budget", np.zeros((3, 0), dtype=np.int64)),
        ("bigm{}_u{}_end", np.array([[1, 0], [6, 12]])),
    ])
    def test_matches_str_format(self, name_format, labels):
        expected = [name_format.format(*row) for row in labels.tolist()]
        assert _format_labels(name_format, labels) == expected

    def test_no_forbidden_cells_no_forbid_rows(self):
        model = build_model(make_instance(np.ones((2, 2))))
        block = next(b for b in model.constraints if b.tag == "forbidden")
        assert block.labels.shape == (0, 3)
        assert block.row_names() == []


@pytest.fixture(scope="module")
def suite_models():
    """Models of the 20 desk-suite instances and of the cluster demo."""
    insts = [inst for _, inst in desk_suite(20)] + [cluster_demo_instance()]
    return [build_model(inst) for inst in insts]


class TestOneMatrix:
    def test_families_are_views_of_the_one_matrix(self, suite_models):
        for model in suite_models:
            for block in model.constraints:
                if len(block.indices):
                    assert np.shares_memory(block.indices, model.a.indices), block.tag

    def test_rows_have_sorted_columns(self, suite_models):
        for model in suite_models:
            assert to_scipy(model.a).has_sorted_indices

    def test_families_tile_the_rows_in_order(self, suite_models):
        for model in suite_models:
            blocks = model.constraints
            assert sum(len(b.labels) for b in blocks) == model.n_constraints == len(model.rhs)
            assert sum(len(b.indices) for b in blocks) == model.a.nnz
            np.testing.assert_array_equal(
                np.concatenate([b.indices for b in blocks]), model.a.indices
            )


class TestCsrMatrix:
    @staticmethod
    def stack(counts, indices, coeffs, n_cols):
        labels = np.arange(len(counts))[:, None]
        return _stack([_rows("t", "t{}", labels, counts, indices, coeffs, "<=", 0.0)], n_cols)[0]

    def test_a_repeated_entry_is_an_error(self):
        with pytest.raises(ValueError, match="row 1 has two entries in column 2"):
            self.stack([1, 3], [2, 2, 0, 2], np.ones(4), 3)

    def test_a_column_may_end_one_row_and_start_the_next(self):
        # each row is in column order; across a row start a column may repeat
        # or fall
        a = self.stack([2, 0, 2, 1], [1, 2, 2, 3, 0], [2.0, 1.0, 3.0, 4.0, 5.0], 4)
        assert a.shape == (4, 4)
        assert a.indptr.tolist() == [0, 2, 2, 4, 5]
        assert a.indices.tolist() == [1, 2, 2, 3, 0]
        assert a.data.tolist() == [2.0, 1.0, 3.0, 4.0, 5.0]
        assert a.nnz == 5

    def test_a_row_out_of_column_order_is_an_error(self):
        # the rows are stacked as given, never sorted
        with pytest.raises(ValueError, match="row 1 is not in column order at column 0"):
            self.stack([1, 3, 0], [1, 2, 0, 1], [2.0, 1.0, 3.0, 4.0], 3)


class TestNormalizers:
    def test_peak_scale_is_inverse_field_max(self):
        field = np.full((3, 3), 1.0)
        field[1, 1] = 35.6
        norms = objective_normalizers(make_instance(field))
        assert norms.peak_scale["M"] == 1.0 / 35.6

    def test_zero_field_scale_falls_back_to_one(self):
        norms = objective_normalizers(make_instance(np.zeros((2, 2))))
        assert norms.peak_scale["M"] == 1.0

    def test_zero_budget_cost_scale_one_and_term_zero(self):
        inst = make_instance(np.ones((2, 2)), budget=0.0)
        norms = objective_normalizers(inst)
        assert norms.cost_scale == 1.0
        breakdown = evaluate_solution(inst, Placement.do_nothing(inst), norms)
        assert breakdown.cost_term == 0.0

    @staticmethod
    def best_single_type_fairness(inst) -> float:
        """The best fairness total of a placement installing one NBS type on
        every cell it is not forbidden on."""
        totals = []
        for t in inst.nbs_ids:
            placement = Placement.empty(inst)
            placement.masks[t] = ~inst.forbidden_mask(t)
            totals.append(float(fairness(inst, placement).sum()))
        return max(totals)

    def test_degenerate_fairness_scale(self):
        all_cells = {(i, j) for i in range(2) for j in range(2)}
        inst = make_instance(np.ones((2, 2)), forbidden=all_cells)
        norms = objective_normalizers(inst)
        assert norms.fairness_min == self.best_single_type_fairness(inst) == 0.0
        assert norms.fairness_scale == 1.0

    def test_fairness_bounds_order(self):
        inst = generate_synthetic(5, GridDims(5, 5), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.1)
        norms = objective_normalizers(inst)
        f_max = self.best_single_type_fairness(inst)
        assert f_max > norms.fairness_min >= 0.0
        assert norms.fairness_scale == 1 / (f_max - norms.fairness_min)


class TestBigM:
    def test_linearization_big_m_covers_delta(self):
        # tiny kernels with a large field: delta exceeds the impact bound
        inst = make_instance(np.full((3, 3), 100.0))
        assert compute_big_m([inst.kernel("M", t) for t in inst.nbs_ids]) == 10.0
        assert linearization_big_m(inst)["M"] == 20.0  # delta = 0.2 * 100

    def test_clamp_witness_residuals(self):
        for z, delta in [(0.0, 2.0), (1.5, 2.0), (2.0, 2.0), (5.0, 2.0)]:
            y, zbar, residual = clamp_witness(z, delta, big_m=max(10.0, delta))
            assert zbar == min(z, delta)
            assert residual <= 1e-12
            assert y == (1 if z <= delta else 0)


def naive_impact_bounds(inst) -> np.ndarray:
    """Per (measure, cell), the sum over source cells of the largest kernel
    entry of any type that may be newly installed there, as plain loops."""
    w, h = inst.dims.shape
    occupied = np.zeros((w, h), dtype=bool)
    for t in inst.nbs_ids:
        occupied |= inst.pre_mask(t)
    out = np.zeros((len(inst.measure_ids), w, h))
    for ui, u in enumerate(inst.measure_ids):
        for i, j, si, sj in np.ndindex(w, h, w, h):
            best = 0.0
            for t in inst.nbs_ids:
                k = inst.kernel(u, t)
                a, b = si - i + k.width // 2, sj - j + k.height // 2
                if (inst.forbidden_mask(t)[si, sj] or occupied[si, sj]
                        or not (0 <= a < k.width and 0 <= b < k.height)):
                    continue
                best = max(best, k.entries[a, b])
            out[ui, i, j] += best
    return out.reshape(len(inst.measure_ids), -1)


class TestImpactBounds:
    @pytest.mark.parametrize("seed, side, nbs, clustered", [
        (3, 4, 3, False), (8, 7, 4, True), (11, 9, 2, False),
    ])
    def test_match_a_loop_over_the_kernels(self, seed, side, nbs, clustered):
        inst = generate_synthetic(seed, GridDims(side, side), nbs_count=nbs, measure_count=4,
                                  forbidden_fraction=0.4, pre_existing_fraction=0.1)
        if clustered:
            inst = with_clusters(inst, partition_instance(inst, inst.nbs_ids[:1]))
        assert any(inst.masks.pre_existing.values())
        bounds = impact_bounds(inst, inst.measure_ids)
        np.testing.assert_allclose(bounds, naive_impact_bounds(inst), rtol=1e-12)
        # summed as when read back from the paper model's conv rows
        np.testing.assert_array_equal(bounds, impact_bounds_from_rows(build_model(inst)))


class TestEvaluateSolution:
    def test_do_nothing_breakdown(self):
        inst = generate_synthetic(2, GridDims(4, 4), nbs_count=2, measure_count=2,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.1)
        norms = objective_normalizers(inst)
        breakdown = evaluate_solution(inst, Placement.do_nothing(inst), norms)
        assert breakdown.cost_value == 0.0 and breakdown.cost_term == 0.0
        for u in inst.measures:
            assert breakdown.peak_value[u.id] == pytest.approx(float(u.field.max()))
        assert breakdown.fairness_value == pytest.approx(norms.fairness_min)
        assert breakdown.fairness_term == pytest.approx(0.0, abs=1e-15)

    def test_budget_violation_named(self):
        inst = make_instance(np.ones((2, 2)), cost=100.0, budget=150.0)
        placement = Placement.from_new_cells(inst, {"GW": [(0, 0), (0, 1)]})
        violations = check_placement(inst, placement)
        assert [v.family for v in violations] == ["budget"]
        with pytest.raises(InfeasiblePlacement) as exc:
            evaluate_solution(inst, placement, objective_normalizers(inst))
        assert "budget" in str(exc.value)

    def test_one_type_violation(self):
        inst = generate_synthetic(1, GridDims(2, 2), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        placement = Placement.empty(inst)
        placement.masks["GW"][0, 0] = True
        placement.masks["GR"][0, 0] = True
        families = {v.family for v in check_placement(inst, placement)}
        assert "one_type" in families

    def test_forbidden_and_pre_existing_violations(self):
        inst = make_instance(np.ones((2, 2)), forbidden={(0, 0)}, pre_existing={(1, 1)})
        placement = Placement.empty(inst)  # drops the pre-existing cell
        placement.masks["GW"][0, 0] = True
        families = {v.family for v in check_placement(inst, placement)}
        assert families == {"forbidden", "pre_existing"}

    def test_partial_cluster_violation(self):
        inst = cluster_demo_instance()
        cluster = inst.clusters["UP"][0]
        placement = Placement.do_nothing(inst)
        placement.masks["UP"][cluster[0]] = True  # only one cell of the cluster
        families = [v.family for v in check_placement(inst, placement)]
        assert families == ["cluster"]

    def test_matches_milp_objective_at_random_points(self):
        rng = np.random.default_rng(30)
        inst = generate_synthetic(9, GridDims(4, 4), nbs_count=2, measure_count=2,
                                  forbidden_fraction=0.4, pre_existing_fraction=0.1)
        model = build_model(inst)
        norms = objective_normalizers(inst)
        for _ in range(10):
            placement = Placement.do_nothing(inst)
            cost = 0.0
            for t in inst.nbs_ids:
                eligible = np.argwhere(inst.eligible_mask(t))
                for i, j in eligible:
                    occupied = any(placement.masks[s][i, j] for s in inst.nbs_ids)
                    unit_cost = inst.nbs_by_id(t).cost
                    if not occupied and rng.random() < 0.3 and cost + unit_cost <= inst.budget:
                        placement.masks[t][i, j] = True
                        cost += unit_cost
            vals = variable_vector(inst, model, placement)
            assert constraint_residuals(model, vals) <= 1e-9
            breakdown = evaluate_solution(inst, placement, norms)
            objective = vals @ model.c + model.objective_constant
            assert objective == pytest.approx(breakdown.total, abs=1e-9)


class TestAllForbidden:
    def test_only_feasible_point_is_do_nothing(self):
        inst = generate_synthetic(4, GridDims(3, 3), nbs_count=2, measure_count=1,
                                  forbidden_fraction=1.0, pre_existing_fraction=0.0)
        result = solve_oracle(inst)
        assert result.status == "optimal"
        norms = objective_normalizers(inst)
        do_nothing = evaluate_solution(inst, Placement.do_nothing(inst), norms)
        assert result.objective == pytest.approx(do_nothing.total, abs=1e-12)
        for t in inst.nbs_ids:
            assert result.placement.new_mask(inst, t).sum() == 0


class TestPureFairnessWeights:
    def test_fairness_only_objective_maximizes_fairness(self):
        inst = generate_synthetic(6, GridDims(4, 4), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.1)
        inst.weights = ObjectiveWeights(
            peak={u: 0.0 for u in inst.measure_ids},
            avg={u: 0.0 for u in inst.measure_ids},
            cost=0.0,
            fairness=1.0,
        )
        result = solve_oracle(inst, unit_cap=20)
        norms = objective_normalizers(inst)
        assert result.breakdown.fairness_value >= norms.fairness_min - 1e-9


@pytest.mark.parametrize("other", [float("inf"), float("-inf"), float("nan")])
def test_values_close_is_false_for_a_value_that_is_not_finite(other):
    assert values_close(0.1, other) is False and values_close(other, 0.1) is False
    assert values_close(other, other) is False
    assert values_close(0.1, 0.1 + 1e-8) is True
