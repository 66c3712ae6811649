import json

import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.clustering import with_clusters
from nbsopt.instance import (
    SchemaError,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate_instance,
)

from _helpers import cluster_demo_instance, instances_equal, make_instance


def minimal_dict():
    """Smallest well-formed instance: 1x1 grid, one NBS, one measure."""
    return {
        "dims": {"width": 1, "height": 1, "resolution": 10.0},
        "nbs": [{"id": "GW", "name": "Green Wall", "cost": 100.0}],
        "measures": [{"id": "M", "unit": "u", "field": [[5.0]], "delta": None}],
        "kernels": {"M": {"GW": {"size": [1, 1], "rows": [[2.0]]}}},
        "fairness_kernels": {"GW": {"size": [1, 1], "rows": [[1.0]]}},
        "forbidden": {"GW": []},
        "pre_existing": {"GW": []},
        "population": [[1.0]],
        "budget": 50.0,
        "weights": {
            "peak": {"M": 0.25},
            "avg": {"M": 0.25},
            "cost": 0.25,
            "fairness": 0.25,
        },
        "clusters": None,
    }


class TestSchema:
    def test_minimal_instance(self):
        inst = instance_from_dict(minimal_dict())
        validate_instance(inst)
        assert inst.dims.width == 1 and inst.dims.height == 1

    def test_missing_key_names_field(self):
        raw = minimal_dict()
        del raw["budget"]
        with pytest.raises(SchemaError) as exc:
            instance_from_dict(raw)
        assert exc.value.field == "budget"

    def test_bad_field_shape_names_path(self):
        raw = minimal_dict()
        raw["measures"][0]["field"] = [[1.0, 2.0]]
        with pytest.raises(SchemaError) as exc:
            instance_from_dict(raw)
        assert "measures[0].field" in exc.value.field

    def test_bad_cell_pair(self):
        raw = minimal_dict()
        raw["forbidden"]["GW"] = [[0]]
        with pytest.raises(SchemaError) as exc:
            instance_from_dict(raw)
        assert "forbidden.GW" in exc.value.field

    @pytest.mark.parametrize("path, value, field", [
        (("weights", "peak", "M"), "abc", "weights.peak.M"),
        (("weights", "avg", "M"), None, "weights.avg.M"),
        (("weights", "peak", "M"), True, "weights.peak.M"),
        (("kernels", "M", "GW", "rows"), [[2.0], [1.0, 2.0]], "kernels.M.GW.rows"),
        (("fairness_kernels", "GW", "rows"), [[1.0, 1.0], [1.0]], "fairness_kernels.GW.rows"),
        (("dims", "width"), True, "dims.width"),
        (("measures", 0, "delta"), True, "measures[0].delta"),
        (("measures", 0, "field"), [[True]], "measures[0].field"),
        (("population",), [[True]], "population"),
        (("kernels", "M", "GW", "rows"), [[False]], "kernels.M.GW.rows"),
        (("fairness_kernels", "GW", "rows"), [["1.0"]], "fairness_kernels.GW.rows"),
        (("kernels", "M", "GW", "size"), [True, True], "kernels.M.GW.size"),
        (("fairness_kernels", "GW", "size"), [1, False], "fairness_kernels.GW.size"),
        # JSON integers past a float's range, where a float is wanted
        (("budget",), 10**400, "budget"),
        (("nbs", 0, "cost"), -10**400, "nbs[0].cost"),
        (("measures", 0, "field"), [[10**400]], "measures[0].field"),
    ], ids=["peak_text", "avg_null", "peak_bool", "kernel_ragged", "fairness_ragged",
            "width_bool", "delta_bool", "field_bool", "population_bool", "kernel_bool",
            "fairness_text", "kernel_size_bool", "fairness_size_bool", "budget_overflow",
            "cost_overflow", "field_overflow"])
    def test_malformed_value_names_field(self, path, value, field):
        raw = minimal_dict()
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError) as exc:
            instance_from_dict(raw)
        assert exc.value.field == field
        if type(value) is int and abs(value) > 1e308:  # names the range, not the digits
            message = str(exc.value)
            assert message == (f"{field}: expected float, got an integer beyond a float's "
                               "range (above 1.798e+308 in magnitude)")
            assert len(message) < 200

    def test_population_normalized_on_load(self):
        raw = minimal_dict()
        raw["dims"] = {"width": 2, "height": 1, "resolution": 10.0}
        raw["measures"][0]["field"] = [[5.0], [1.0]]
        raw["population"] = [[30.0], [10.0]]  # raw counts
        raw["kernels"] = {"M": {"GW": {"size": [1, 1], "rows": [[2.0]]}}}
        inst = instance_from_dict(raw)
        np.testing.assert_allclose(inst.population, [[0.75], [0.25]])
        assert inst.population.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_population_rejected(self):
        raw = minimal_dict()
        raw["population"] = [[0.0]]
        with pytest.raises(SchemaError):
            instance_from_dict(raw)


class TestValidation:
    def test_cell_pre_existing_for_two_types(self):
        inst = generate_synthetic(0, GridDims(4, 4), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        inst.masks.pre_existing["GW"].add((2, 3))
        inst.masks.pre_existing["GR"].add((2, 3))
        with pytest.raises(ValidationError) as exc:
            validate_instance(inst)
        assert "pre-exists for two types" in str(exc.value)
        assert "(2, 3)" in str(exc.value)

    def test_forbidden_and_pre_existing_overlap(self):
        inst = generate_synthetic(0, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        inst.masks.forbidden["GW"].add((1, 1))
        inst.masks.pre_existing["GW"].add((1, 1))
        with pytest.raises(ValidationError) as exc:
            validate_instance(inst)
        assert "both forbidden and pre-existing" in str(exc.value)

    def test_weights_must_sum_to_one(self):
        inst = instance_from_dict(minimal_dict())
        inst.weights.cost = 0.5
        with pytest.raises(ValidationError) as exc:
            validate_instance(inst)
        assert "sum to 1" in str(exc.value)

    @pytest.mark.parametrize("path, field", [
        (("measures", 0, "delta"), "measure 'M': delta"),
        (("weights", "peak", "M"), "weights.peak.M"),
        (("weights", "avg", "M"), "weights.avg.M"),
        (("weights", "cost"), "weights.cost"),
        (("weights", "fairness"), "weights.fairness"),
        (("nbs", 0, "cost"), "NBS 'GW': cost"),
        (("population", 0, 0), "population"),
    ], ids=["delta", "peak", "avg", "cost", "fairness", "nbs_cost", "population"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.filterwarnings("error")  # no arithmetic on the non-finite number
    def test_non_finite_number_names_field(self, path, field, value, tmp_path):
        raw = minimal_dict()
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        file = tmp_path / "inst.json"
        file.write_text(json.dumps(raw))  # Python's json writes NaN and Infinity
        with pytest.raises(ValidationError) as exc:
            validate_instance(load_instance(file))
        assert f"{field} must be finite" in str(exc.value)

    def test_negative_derived_delta_names_measure(self):
        # delta null is 20% of the field maximum, negative for a field below zero
        inst = generate_synthetic(0, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        measure = inst.measures[0]
        assert measure.delta is None
        measure.field = measure.field - 100.0
        with pytest.raises(ValidationError) as exc:
            validate_instance(inst)
        assert f"measure {measure.id!r}: delta derived from the field" in str(exc.value)
        assert "must be >= 0" in str(exc.value)

    def test_cluster_cell_must_be_eligible(self):
        raw = minimal_dict()
        raw["dims"] = {"width": 2, "height": 2, "resolution": 10.0}
        raw["measures"][0]["field"] = [[1.0, 1.0], [1.0, 1.0]]
        raw["population"] = [[0.25, 0.25], [0.25, 0.25]]
        raw["forbidden"]["GW"] = [[0, 0]]
        raw["clusters"] = {"GW": [[[0, 0], [0, 1]]]}
        with pytest.raises(ValidationError) as exc:
            instance = instance_from_dict(raw)
            validate_instance(instance)
        assert "forbidden" in str(exc.value)

    def test_out_of_grid_coordinates(self):
        raw = minimal_dict()
        raw["pre_existing"]["GW"] = [[5, 5]]
        inst = instance_from_dict(raw)
        with pytest.raises(ValidationError) as exc:
            validate_instance(inst)
        assert "outside the grid" in str(exc.value)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_save_load_identity(self, seed, tmp_path):
        inst = generate_synthetic(seed, GridDims(6, 5), nbs_count=3, measure_count=2,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.1)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instances_equal(inst, again)

    def test_save_is_idempotent_bytes(self, tmp_path):
        inst = generate_synthetic(3, GridDims(5, 5), nbs_count=2, measure_count=2,
                                  forbidden_fraction=0.4, pre_existing_fraction=0.05)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_masks_serialized_explicitly(self):
        inst = generate_synthetic(1, GridDims(2, 2), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        raw = instance_to_dict(inst)
        assert raw["forbidden"] == {"GW": [], "GR": []}
        assert raw["pre_existing"] == {"GW": [], "GR": []}

    def test_clustered_instance_round_trip(self, tmp_path):
        inst = cluster_demo_instance()
        path = tmp_path / "c.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instances_equal(inst, again)
        assert again.clusters == inst.clusters

    def test_fifty_by_fifty_under_ten_megabytes(self, tmp_path):
        inst = generate_synthetic(11, GridDims(50, 50), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.07)
        path = tmp_path / "xs.json"
        save_instance(inst, path)
        assert path.stat().st_size < 10 * 1024 * 1024

    def test_full_precision_round_trip(self, tmp_path):
        inst = make_instance(np.array([[0.1 + 0.2, 1e-17], [35.6, 7.12]]), budget=1 / 3)
        path = tmp_path / "p.json"
        save_instance(inst, path)
        again = load_instance(path)
        np.testing.assert_array_equal(again.measures[0].field, inst.measures[0].field)
        assert again.budget == inst.budget


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic(1, GridDims(8, 8), nbs_count=3, measure_count=2,
                               forbidden_fraction=0.3, pre_existing_fraction=0.1)
        b = generate_synthetic(1, GridDims(8, 8), nbs_count=3, measure_count=2,
                               forbidden_fraction=0.3, pre_existing_fraction=0.1)
        assert instances_equal(a, b)

    def test_all_forbidden_at_fraction_one(self):
        inst = generate_synthetic(2, GridDims(4, 4), nbs_count=2, measure_count=1,
                                  forbidden_fraction=1.0, pre_existing_fraction=0.0)
        all_cells = {(i, j) for i in range(4) for j in range(4)}
        for t in inst.nbs_ids:
            assert inst.masks.forbidden[t] == all_cells

    def test_equal_weights_with_four_measures(self):
        inst = generate_synthetic(3, GridDims(4, 4), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.2, pre_existing_fraction=0.05)
        expected = 1.0 / 10.0  # 2*4 measure terms + cost + fairness
        for u in inst.measure_ids:
            assert inst.weights.peak[u] == pytest.approx(expected, abs=1e-15)
            assert inst.weights.avg[u] == pytest.approx(expected, abs=1e-15)
        assert inst.weights.cost == pytest.approx(expected, abs=1e-15)
        assert inst.weights.fairness == pytest.approx(expected, abs=1e-15)

    def test_budget_in_expected_range(self):
        for seed in range(5):
            inst = generate_synthetic(seed, GridDims(6, 6), nbs_count=4, measure_count=1,
                                      forbidden_fraction=0.5, pre_existing_fraction=0.0)
            max_cost = max(t.cost for t in inst.nbs)
            lo, hi = 0.30 * max_cost * 36, 0.50 * max_cost * 36
            assert lo <= inst.budget <= hi

    def test_impossible_fractions_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, GridDims(3, 3), forbidden_fraction=0.7,
                               pre_existing_fraction=0.5)

    def test_generated_instances_validate(self):
        for seed in range(4):
            inst = generate_synthetic(seed, GridDims(5, 7), nbs_count=2, measure_count=3,
                                      forbidden_fraction=0.4, pre_existing_fraction=0.2)
            validate_instance(inst)  # raises on failure


class TestGrids:
    @pytest.mark.parametrize("make", [
        lambda: generate_synthetic(5, GridDims(7, 5), nbs_count=3, measure_count=1,
                                   forbidden_fraction=0.3, pre_existing_fraction=0.1),
        cluster_demo_instance,
    ], ids=["generated", "cluster_demo"])
    def test_grids_hold_the_mask_cells_in_catalog_order(self, make):
        inst = make()
        shape = (len(inst.nbs), *inst.dims.shape)
        for grids in (inst.forbidden, inst.pre_existing, inst.eligible):
            assert grids.shape == shape and grids.dtype == bool
        assert inst.pre_existing.any()
        for k, t in enumerate(inst.nbs_ids):
            assert set(map(tuple, np.argwhere(inst.forbidden[k]).tolist())) \
                == inst.masks.forbidden[t]
            assert set(map(tuple, np.argwhere(inst.pre_existing[k]).tolist())) \
                == inst.masks.pre_existing[t]
        assert not inst.eligible[:, inst.pre_existing.any(axis=0)].any()
        np.testing.assert_array_equal(
            inst.eligible, ~inst.forbidden & ~inst.pre_existing.any(axis=0))

    def test_fields_and_deltas_hold_each_measure_in_measure_order(self):
        inst = generate_synthetic(5, GridDims(7, 5), nbs_count=2, measure_count=3,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.1)
        inst.measures[1].delta = 0.25  # the others derive theirs from the field
        assert inst.fields.shape == (3, 7, 5) and inst.deltas.shape == (3,)
        for k, u in enumerate(inst.measures):
            np.testing.assert_array_equal(inst.fields[k], u.field)
            assert inst.deltas[k] == u.effective_delta()
        assert inst.deltas[1] == 0.25

    def test_a_copy_with_clusters_builds_its_own_grids(self):
        inst = cluster_demo_instance()
        copy = with_clusters(inst, {})
        for name in ("forbidden", "pre_existing", "eligible", "fields", "deltas"):
            grids, copied = getattr(inst, name), getattr(copy, name)
            assert copied is not grids
            np.testing.assert_array_equal(copied, grids)


def test_json_numbers_survive_python_json(tmp_path):
    # The file must parse as plain JSON with the documented top-level keys.
    inst = generate_synthetic(5, GridDims(3, 3), nbs_count=1, measure_count=1,
                              forbidden_fraction=0.2, pre_existing_fraction=0.1)
    path = tmp_path / "x.json"
    save_instance(inst, path)
    raw = json.loads(path.read_text())
    assert set(raw) == {
        "dims", "nbs", "measures", "kernels", "fairness_kernels", "forbidden",
        "pre_existing", "population", "budget", "weights", "clusters",
    }
