"""Hand-computed cases for the benchmark's independent checker.

The checker itself never imports nbsopt.engine or nbsopt.model; these tests
use nbsopt.model and nbsopt.mps only to produce files for it to judge.

Run with: PYTHONPATH=src python -m pytest perfbench -q

The 3x3 instance has one street-tree type (cost 2, budget 4), one measure
with a single hot centre cell, a plus-shaped impact kernel and a 1x1
fairness kernel, so every objective term can be worked out on paper:

    field = [[1, 2, 1], [2, 8, 2], [1, 2, 1]]   max 8, mean 20/9, delta 1.6
    weights 1/4 each; peak and mean divide by 8, cost by the budget (4),
    fairness is min-max scaled between its do-nothing and all-allowed totals.
"""

import numpy as np
import pytest

from nbsopt.instance import GridDims, Instance, Masks, NbsType, ObjectiveWeights, UcMeasure
from nbsopt.kernels import Kernel
from nbsopt.model import build_model
from nbsopt.mps import export_interchange

from checker import CheckFailed, Checker, check_mps, correlate, expected_counts, lift

FIELD = [[1.0, 2.0, 1.0], [2.0, 8.0, 2.0], [1.0, 2.0, 1.0]]
PLUS = [[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]]


def tiny(pre=(), clusters=None) -> Instance:
    return Instance(
        dims=GridDims(3, 3),
        nbs=[NbsType(id="ST", name="Street Tree", cost=2.0)],
        measures=[UcMeasure(id="TempMax", unit="degC", field=np.array(FIELD))],
        kernels={("TempMax", "ST"): Kernel(np.array(PLUS))},
        fairness_kernels={"ST": Kernel(np.array([[1.0]]))},
        masks=Masks(forbidden={"ST": {(0, 0)}}, pre_existing={"ST": set(pre)}),
        population=np.full((3, 3), 1.0 / 9.0),
        budget=4.0,
        weights=ObjectiveWeights(
            peak={"TempMax": 0.25}, avg={"TempMax": 0.25}, cost=0.25, fairness=0.25
        ),
        clusters=clusters,
    )


def at(*cells) -> dict[str, np.ndarray]:
    mask = np.zeros((3, 3), dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    return {"ST": mask}


def test_correlate_is_zero_padded_and_unflipped():
    field = np.zeros((3, 3))
    field[1, 2] = 1.0
    kernel = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 0.0]])
    # out[i, j] gathers kernel[1, 2] * field[i, j + 1]: the 3 lands left of the cell
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(correlate(field, kernel), expected)


def test_do_nothing_objective():
    # peak 8/8 * 1/4 + mean (20/9)/8 * 1/4, no cost, no fairness gain
    assert Checker(tiny()).objective(at()) == pytest.approx(0.25 + 5 / 72, rel=1e-12)


def test_centre_tree_caps_the_impact_at_delta():
    # z at the centre is 2 > delta 1.6, so reduced = [[1,1,1],[1,6.4,1],[1,1,1]]:
    # peak 6.4, mean 1.6, spend 2 of 4, fairness 1/9 of a 8/9 spread
    expected = 0.25 * 6.4 / 8 + 0.25 * 1.6 / 8 + 0.25 * 2 / 4 - 0.25 * (1 / 9) / (8 / 9)
    checker = Checker(tiny())
    assert checker.objective(at((1, 1))) == pytest.approx(expected, rel=1e-12)
    assert checker.verify(at((1, 1)), expected) == pytest.approx(0.34375, rel=1e-12)


def test_corner_tree_loses_the_window_outside_the_grid():
    # z = [[0,0,0],[0,0,1],[0,1,2]] capped to 1.6 at the corner: the peak stays 8
    expected = 0.25 + 0.25 * (16.4 / 9) / 8 + 0.125 - 0.03125
    assert Checker(tiny()).objective(at((2, 2))) == pytest.approx(expected, rel=1e-12)


def test_pre_existing_counts_for_fairness_only():
    # the tree at (0, 2) is old: no impact, no cost, but fairness 1/9 at do-nothing
    checker = Checker(tiny(pre=[(0, 2)]))
    expected = 0.25 * 6.4 / 8 + 0.25 * 1.6 / 8 + 0.125 - 0.25 * (1 / 9) / (7 / 9)
    assert checker.objective(at((0, 2), (1, 1))) == pytest.approx(expected, rel=1e-12)
    assert checker.violations(at((1, 1))) == ["pre_existing"]


def test_rejects_over_budget():
    checker = Checker(tiny())
    assert checker.violations(at((0, 1), (1, 0), (2, 2))) == ["budget"]


def test_rejects_split_cluster():
    checker = Checker(tiny(clusters={"ST": [[(0, 1), (0, 2)]]}))
    assert checker.violations(at((0, 1), (0, 2))) == []
    assert checker.violations(at((0, 1))) == ["cluster"]


def test_rejects_forbidden_cell():
    assert Checker(tiny()).violations(at((0, 0))) == ["forbidden"]


def test_rejects_objective_off_by_1e_4():
    checker = Checker(tiny())
    with pytest.raises(CheckFailed, match="objective"):
        checker.verify(at((1, 1)), 0.34375 + 1e-4)


def test_rejects_negative_mean():
    # a flat field of 0.5 with a cap of 5: the centre tree removes 6 of 4.5
    inst = tiny()
    inst.measures[0].field = np.full((3, 3), 0.5)
    inst.measures[0].delta = 5.0
    assert Checker(inst).violations(at((1, 1))) == ["avg_nonneg"]


def test_closed_form_counts():
    # columns 9*1 + 3*9*1 + 2 + 9 + 1 cluster; rows 9 + 1 + 1 forbidden
    # + 1 pre + 2 cluster cells + 8*9 + 1 + 9
    inst = tiny(pre=[(2, 2)], clusters={"ST": [[(0, 1), (0, 2)]]})
    assert expected_counts(inst) == (48, 96)
    model = build_model(inst)
    assert (model.n_variables, model.n_constraints) == (48, 96)


def test_lifted_placement_satisfies_the_exported_file(tmp_path):
    inst = tiny(pre=[(2, 2)], clusters={"ST": [[(0, 1), (0, 2)]]})
    path = tmp_path / "tiny.mps"
    export_interchange(build_model(inst), path)
    checker = Checker(inst)
    masks = at((0, 1), (0, 2), (2, 2))
    assert checker.violations(masks) == []
    seen = check_mps(path, lift(checker, masks))
    assert (seen["columns"], seen["rows"]) == (48, 96)
    assert seen["objective"] == pytest.approx(checker.objective(masks), rel=1e-9)


def test_mps_check_rejects_a_wrong_column_value(tmp_path):
    inst = tiny()
    path = tmp_path / "tiny.mps"
    export_interchange(build_model(inst), path)
    values = lift(Checker(inst), at((1, 1)))
    values["zbar_u0_i1_j1"] = 2.0  # above the cap delta = 1.6
    with pytest.raises(CheckFailed, match="bigm4"):
        check_mps(path, values)


def test_metric_lists_match_benchmark_json():
    import json
    from pathlib import Path

    from workloads import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"]]
    assert sorted(names) == ["op_s_p50", "peak_rss_mb", "setup_s", "wall_s"]
