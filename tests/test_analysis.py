import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbsopt import GridDims, cli, generate_synthetic
from nbsopt.analysis import (
    CAT_FORBIDDEN,
    CAT_NEW,
    CAT_PRE_EXISTING,
    CAT_UNUSED,
    batch_stats,
    build_report,
    export_heatmaps,
    gini,
    report_to_dict,
    write_report,
)
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement
from nbsopt.instance import save_instance
from nbsopt.model import objective_normalizers
from nbsopt.solve import SolveConfig, SolveResult, check_claim, solve, solve_oracle
from nbsopt.suite import desk_suite

from _helpers import checked_round_trip, cluster_demo_instance, make_instance, read_matrix_csv


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([3.0] * 10) == 0.0

    def test_single_holder(self):
        assert gini([0.0, 0.0, 0.0, 1.0]) == 0.75

    def test_scale_invariance(self):
        v = [0.5, 1.0, 2.0, 8.0]
        for k in (2.0, 0.1, 1e6):
            assert abs(gini([k * x for x in v]) - gini(v)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.random(20)
        shuffled = v.copy()
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(v), abs=1e-12)

    def test_all_zero_defined_as_zero(self):
        assert gini([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    def test_always_in_unit_interval(self, values):
        g = gini(values)
        assert 0.0 <= g <= 1.0

    def test_matches_pairwise_difference_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.random(15) * 10
        n = len(v)
        pairwise = sum(abs(a - b) for a in v for b in v)
        expected = pairwise / (2 * n * n * v.mean())
        assert gini(v) == pytest.approx(expected, abs=1e-12)


@pytest.fixture
def solved_small():
    inst = generate_synthetic(7, GridDims(4, 4), nbs_count=2, measure_count=2,
                              forbidden_fraction=0.55, pre_existing_fraction=0.1)
    result = solve_oracle(inst, unit_cap=20)
    return inst, result


class TestBuildReport:
    def test_do_nothing_report_is_flat(self):
        inst = generate_synthetic(3, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=1.0, pre_existing_fraction=0.0)
        result = solve_oracle(inst)
        report = build_report(inst, result)
        for m in report.measures:
            assert m["initial_peak"] == m["final_peak"]
            assert m["initial_avg"] == m["final_avg"]
            assert m["reduction"].sum() == 0.0
        assert report.gini["initial"] == report.gini["final"]
        for t in report.nbs:
            assert t["new_cells"] == 0 and t["spend"] == 0.0

    def test_urban_park_cell_costs_3780_per_year(self):
        inst = cluster_demo_instance()
        result = solve_oracle(inst)
        report = build_report(inst, result)
        up = next(t for t in report.nbs if t["id"] == "UP")
        assert up["new_cells"] > 0
        assert up["spend"] == pytest.approx(up["new_cells"] * 37.8 * 100, abs=1e-9)

    def test_budget_fractions_sum_to_spend_share(self, solved_small):
        inst, result = solved_small
        report = build_report(inst, result)
        total_fraction = sum(t["budget_fraction"] for t in report.nbs)
        total_spend = sum(t["spend"] for t in report.nbs)
        assert total_fraction == pytest.approx(total_spend / inst.budget, abs=1e-12)
        assert total_fraction <= 1.0 + 1e-9

    def test_final_peak_never_exceeds_initial(self, solved_small):
        inst, result = solved_small
        report = build_report(inst, result)
        for m in report.measures:
            assert m["final_peak"] <= m["initial_peak"] + 1e-12

    def test_categories_partition_grid(self, solved_small):
        inst, result = solved_small
        report = build_report(inst, result)
        new = result.placement.new_masks(inst)
        for k, cat in enumerate(report.placement_categories.values()):
            assert cat.shape == inst.dims.shape
            assert set(np.unique(cat)) <= {CAT_FORBIDDEN, CAT_UNUSED,
                                           CAT_PRE_EXISTING, CAT_NEW}
            np.testing.assert_array_equal(cat == CAT_NEW, new[k])
            np.testing.assert_array_equal(cat == CAT_PRE_EXISTING, inst.pre_existing[k])

    def test_gini_recomputed_from_fairness_field(self, solved_small):
        from nbsopt import engine
        from nbsopt.analysis import gini as gini_fn

        inst, result = solved_small
        report = build_report(inst, result)
        expected = gini_fn(engine.fairness(inst, result.placement))
        assert report.gini["final"] == expected

    @pytest.mark.parametrize("backend", ["oracle", "external"])
    def test_no_kernel_pass_on_a_solved_result(self, backend, monkeypatch):
        """The placement's fields come from the result's evaluation, and the
        do-nothing fairness field for the initial Gini from its normalizers."""
        from nbsopt import engine

        calls = []
        correlate = engine.correlate
        monkeypatch.setattr(
            engine, "correlate", lambda *args: calls.append(1) or correlate(*args)
        )
        for _, inst in desk_suite(4):
            result = solve(inst, SolveConfig(backend=backend))
            calls.clear()
            build_report(inst, result)
            assert calls == []

    @pytest.mark.parametrize("backend", ["oracle", "external"])
    def test_report_from_result_file_equals_in_memory(self, backend, tmp_path):
        for seed, inst in desk_suite(3):
            instance_path, result_path = tmp_path / "inst.json", tmp_path / "result.json"
            save_instance(inst, instance_path)
            assert cli.main(["solve", str(instance_path), "--backend", backend,
                             "--out", str(result_path)]) == 0
            assert cli.main(["report", str(instance_path), str(result_path),
                             "--out-dir", str(tmp_path / "rep")]) == 0
            from_file = json.loads((tmp_path / "rep" / "report.json").read_text())
            result = solve(inst, SolveConfig(backend=backend))
            in_memory = json.loads(json.dumps(report_to_dict(build_report(inst, result))))
            for report in (from_file, in_memory):
                report["metadata"].pop("wall_time")
            assert from_file == in_memory, f"seed {seed}"
            back = checked_round_trip(inst, result)
            assert (back.status, back.objective, back.bound) == (
                result.status, result.objective, result.bound), f"seed {seed}"

    def test_result_without_placement_rejected(self, solved_small):
        inst, _ = solved_small
        bad = SolveResult(status="infeasible", backend="oracle")
        with pytest.raises(ValueError):
            build_report(inst, bad)


class TestExports:
    def test_csv_round_trip_exact(self, tmp_path, solved_small):
        inst, result = solved_small
        report = build_report(inst, result)
        export_heatmaps(report, tmp_path)
        for m in report.measures:
            parsed = read_matrix_csv(tmp_path / f"reduction_{m['id'].replace('/', '_')}.csv")
            np.testing.assert_array_equal(parsed, m["reduction"])

    def test_all_zero_reduction_gives_uniform_image(self, tmp_path):
        inst = generate_synthetic(3, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=1.0, pre_existing_fraction=0.0)
        report = build_report(inst, solve_oracle(inst))
        export_heatmaps(report, tmp_path)
        pgm = (tmp_path / "reduction_TempMax.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        body = [line for line in pgm[1:] if not line.startswith("#")]
        assert body[1] == "255"  # maxval after the dimensions line
        pixels = " ".join(body[2:]).split()
        assert set(pixels) == {"0"}
        csv_values = read_matrix_csv(tmp_path / "reduction_TempMax.csv")
        assert csv_values.sum() == 0.0

    def test_single_reduced_cell_single_nonzero_entry(self, tmp_path):
        inst = make_instance(
            np.full((3, 3), 10.0),
            kernel=None,
            forbidden={(i, j) for i in range(3) for j in range(3)} - {(1, 1)},
        )
        # 3x3 kernel reaches every cell from the center, so shrink it to 1x1
        from nbsopt.kernels import Kernel

        inst.kernels[("M", "GW")] = Kernel(np.array([[2.0]]))
        placement = Placement.from_new_cells(inst, {"GW": [(1, 1)]})
        claim = SolveResult(status="optimal", backend="oracle", placement=placement)
        report = build_report(inst, check_claim(inst, objective_normalizers(inst), claim, 1e-9))
        export_heatmaps(report, tmp_path)
        parsed = read_matrix_csv(tmp_path / "reduction_M.csv")
        assert int((parsed != 0).sum()) == 1
        assert parsed[1, 1] == 2.0

    def test_sidecars_written(self, tmp_path, solved_small):
        inst, result = solved_small
        report = build_report(inst, result)
        export_heatmaps(report, tmp_path)
        scales = json.loads((tmp_path / "heatmap_scales.json").read_text())
        assert set(scales) == set(inst.measure_ids)
        legend = json.loads((tmp_path / "placement_legend.json").read_text())
        assert {v["label"] for v in legend.values()} == {
            "forbidden", "unused", "pre-existing", "new",
        }
        for t in inst.nbs_ids:
            assert (tmp_path / f"placement_{t}.pgm").exists()

    def test_report_json_round_trip(self, tmp_path):
        """report.json holds the report's values under keys in a fixed order,
        here for two types, one of them clustered, and two measures."""
        inst = generate_synthetic(7, GridDims(4, 4), nbs_count=2, measure_count=2,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.1)
        inst = with_clusters(inst, partition_instance(inst, ["GW"], min_size=2, max_size=4))
        assert inst.clusters["GW"] and inst.nbs_ids == ["GW", "GR"]
        report = build_report(inst, solve_oracle(inst))
        write_report(report, tmp_path / "report.json")
        raw = json.loads((tmp_path / "report.json").read_text())
        assert raw["gini"]["initial"] == report.gini["initial"]
        assert raw["objective"]["total"] == report.objective.total
        assert len(raw["measures"]) == len(inst.measures)
        assert list(raw) == ["measures", "nbs", "gini", "objective", "placement_categories",
                             "metadata"]
        for entry, u in zip(raw["measures"], inst.measure_ids, strict=True):
            assert list(entry) == ["id", "initial_peak", "final_peak", "initial_avg",
                                   "final_avg", "negative_cells", "reduction"]
            assert entry["id"] == u
        for entry, t in zip(raw["nbs"], inst.nbs_ids, strict=True):
            assert list(entry) == ["id", "new_cells", "spend", "budget_fraction"]
            assert entry["id"] == t
        assert list(raw["gini"]) == ["initial", "final"]


class TestBatchStats:
    def make_report(self, seed, status="optimal"):
        inst = generate_synthetic(seed, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.7, pre_existing_fraction=0.05)
        result = solve_oracle(inst)
        report = build_report(inst, result)
        report.metadata["status"] = status
        return report

    def test_single_optimal_is_100_percent(self):
        stats = batch_stats([self.make_report(0)])
        assert stats["pct_optimal"] == 100.0
        assert stats["count"] == 1

    def test_one_timeout_of_two_is_50_percent(self):
        reports = [self.make_report(0), self.make_report(1, status="feasible-timeout")]
        stats = batch_stats([reports[0], reports[1]])
        assert stats["pct_optimal"] == 50.0

    def test_deterministic_across_reruns(self):
        a = batch_stats([self.make_report(s) for s in range(3)])
        b = batch_stats([self.make_report(s) for s in range(3)])
        a.pop("mean_wall_time"), b.pop("mean_wall_time")
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_stats([])

    def test_report_dict_shape(self):
        stats = batch_stats([self.make_report(2)])
        assert set(stats) == {"count", "mean_wall_time", "pct_optimal",
                              "measures", "nbs", "gini"}
        assert "mean_peak_reduction" in stats["measures"]["TempMax"]
