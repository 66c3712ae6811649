"""Acceptance gate: every shipped guarantee, one test per criterion.

The equivalence suite solves 50 seeded desk-scale instances (grids at most
6x6, 1-2 NBS types, 1-2 measures, at most 16 decision units) with both the
exhaustive oracle and the external MILP backend, then downstream criteria
re-use those results. Each test prints a PASS line when its criterion holds.
"""

import dataclasses
import hashlib
import resource
import time

import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.analysis import gini
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement, reduction
from nbsopt.instance import ObjectiveWeights, UcMeasure
from nbsopt.kernels import default_kernel_set, derive_delta
from nbsopt.model import (
    build_model,
    check_placement,
    evaluate_solution,
    expected_variable_count,
    objective_normalizers,
)
from nbsopt.mps import export_interchange
from nbsopt.solve import SolveConfig, solve_external, solve_oracle
from nbsopt.suite import desk_suite

from _helpers import (
    cluster_demo_instance,
    make_instance,
    record_answers,
    solve_paper_model,
    variable_vector,
)

SUITE_SIZE = 50
REL_TOL = 1e-6

# Authoritative default-kernel catalog: (size, edge, center) per NBS and
# measure, plus the per-NBS fairness kernels.
EXPECTED_KERNELS = {
    ("GW", "TempMax"): (5, 0.10, 2.70),
    ("GW", "TempMin"): (3, 0.10, 1.90),
    ("GW", "PM2.5"): (5, 0.10, 5.03),
    ("GW", "PM10"): (5, 0.10, 12.90),
    ("GR", "TempMax"): (5, 0.10, 2.00),
    ("GR", "TempMin"): (3, 0.10, 1.40),
    ("GR", "PM2.5"): (5, 0.10, 2.51),
    ("GR", "PM10"): (5, 0.10, 6.45),
    ("ST", "TempMax"): (5, 0.10, 1.30),
    ("ST", "TempMin"): (3, 0.10, 0.70),
    ("ST", "PM2.5"): (3, 0.10, 4.02),
    ("ST", "PM10"): (3, 0.10, 10.32),
    ("UP", "TempMax"): (5, 0.10, 3.50),
    ("UP", "TempMin"): (3, 0.10, 2.50),
    ("UP", "PM2.5"): (7, 0.10, 5.03),
    ("UP", "PM10"): (7, 0.10, 12.90),
}
EXPECTED_FAIRNESS = {
    "GW": (5, 2.0, 6.0),
    "GR": (1, 0.1, 2.0),
    "ST": (3, 0.1, 4.0),
    "UP": (11, 4.0, 10.0),
}
# Peak impact values per NBS: surface temperature reduction and PM absorption.
EXPECTED_TEMPMAX_CENTERS = {"GW": 2.7, "GR": 2.0, "ST": 1.3, "UP": 3.5}
EXPECTED_PM25_CENTERS = {"GW": 5.03, "GR": 2.51, "ST": 4.02, "UP": 5.03}
EXPECTED_PM10_CENTERS = {"GW": 12.90, "GR": 6.45, "ST": 10.32, "UP": 12.90}


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def suite_results():
    """Solve the 50-instance suite with both backends, once per session."""
    t0 = time.perf_counter()
    instances = [(-1, cluster_demo_instance())] + desk_suite(SUITE_SIZE - 1)
    results = []
    config = SolveConfig(backend="external", time_limit=120.0)
    for seed, inst in instances:
        model = build_model(inst)
        oracle = solve_oracle(inst)
        external = solve_external(inst, config)
        results.append((seed, inst, model, oracle, external))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_c01_oracle_milp_equivalence(suite_results):
    results, elapsed = suite_results
    assert len(results) >= 50
    for seed, inst, _, oracle, external in results:
        assert inst.dims.width <= 6 and inst.dims.height <= 6
        assert 1 <= len(inst.nbs) <= 2 and 1 <= len(inst.measures) <= 2
        assert oracle.status == "optimal", f"seed {seed}: oracle {oracle.status}"
        assert external.status == "optimal", (
            f"seed {seed}: external {external.status} ({external.message})"
        )
        assert rel_close(oracle.objective, external.objective), (
            f"seed {seed}: oracle {oracle.objective!r} vs external {external.objective!r}"
        )
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C01 oracle-milp-equivalence ({len(results)} instances, "
          f"{elapsed:.1f}s): PASS")


def test_c02_linearization_property(suite_results, monkeypatch):
    # the default solve's placement embedded in the paper layout with its
    # defined columns; the paper model's big-M rows are checked by solving the
    # paper model itself
    results, _ = suite_results
    config = SolveConfig(backend="external", time_limit=120.0)
    answers = record_answers(monkeypatch)
    for seed, inst, model, _, external in results:
        paper = solve_paper_model(inst, model, config)
        assert paper.status == "optimal", f"seed {seed}: paper model {paper.status}"
        [(_, answer)] = answers
        answers.clear()
        layout = model.layout
        n = layout.n_cells
        for vals in (variable_vector(inst, model, external.placement), answer.x):
            for ui, (u, delta) in enumerate(zip(layout.measure_ids, inst.deltas)):
                z = vals[layout.z_base + ui * n : layout.z_base + (ui + 1) * n]
                zbar = vals[layout.zbar_base + ui * n : layout.zbar_base + (ui + 1) * n]
                err = np.abs(zbar - np.minimum(z, delta)).max()
                assert err <= 1e-6, f"seed {seed}, {u}: |zbar - min(z, delta)| = {err}"
                a = inst.measures[ui].field.ravel()
                zmax = vals[layout.zmax_base + ui]
                assert abs(zmax - (a - zbar).max()) <= 1e-6, (
                    f"seed {seed}, {u}: zmax {zmax} vs {(a - zbar).max()}"
                )
    print("\nACCEPTANCE C02 linearization-property: PASS")


def test_c03_constraint_suite(suite_results):
    results, _ = suite_results
    checked = 0
    for seed, inst, _, oracle, external in results:
        for result in (oracle, external):
            violations = check_placement(inst, result.placement)
            assert violations == [], f"seed {seed} ({result.backend}): {violations}"
            checked += 1
    print(f"\nACCEPTANCE C03 constraint-suite ({checked} solutions): PASS")


def test_c04_kernel_fidelity():
    kernels, fairness = default_kernel_set()
    for (t, u), (size, edge, center) in EXPECTED_KERNELS.items():
        k = kernels[(u, t)]
        assert (k.width, k.height) == (size, size), (t, u)
        assert k.center == center, (t, u)
        assert k.entries[0, 0] == edge, (t, u)
    for t, (size, edge, center) in EXPECTED_FAIRNESS.items():
        k = fairness[t]
        assert (k.width, k.height) == (size, size), t
        assert k.center == center, t
        if size > 1:
            assert k.entries[0, 0] == edge, t
    for t, center in EXPECTED_TEMPMAX_CENTERS.items():
        assert kernels[("TempMax", t)].center == center
    for t, center in EXPECTED_PM25_CENTERS.items():
        assert kernels[("PM2.5", t)].center == center
    for t, center in EXPECTED_PM10_CENTERS.items():
        assert kernels[("PM10", t)].center == center
    print("\nACCEPTANCE C04 kernel-fidelity: PASS")


def test_c05_delta_rule():
    field = np.array([[35.60, 4.95], [20.0, 31.1]])
    assert abs(derive_delta(UcMeasure("t", "C", field)) - 7.12) <= 1e-12
    rng = np.random.default_rng(123)
    for _ in range(25):
        f = rng.random((4, 5)) * rng.uniform(1, 100)
        measure = UcMeasure("t", "C", f)
        assert derive_delta(measure) == 0.2 * f.max()
    print("\nACCEPTANCE C05 delta-rule: PASS")


def test_c06_peak_reduction_semantics():
    field = np.full((5, 5), 20.0)
    field[2, 2] = 33.0
    from nbsopt.kernels import Kernel

    inst = make_instance(field, kernel=Kernel(np.array([[6.0]])), budget=1e9)
    assert inst.deltas[0] == pytest.approx(6.6)  # cap stays above the impact
    placement = Placement.from_new_cells(inst, {"GW": [(2, 2)]})
    zbar = reduction(inst, placement)[0]
    assert zbar[2, 2] == 6.0
    reduced = field - zbar
    assert float(field.max()) == 33.0
    assert float(reduced.max()) == 27.0
    print("\nACCEPTANCE C06 peak-reduction-semantics: PASS")


def test_c07_do_nothing_dominance(suite_results):
    results, _ = suite_results
    for seed, inst, _, oracle, external in results:
        baseline = evaluate_solution(inst, Placement.do_nothing(inst),
                                     objective_normalizers(inst)).total
        assert oracle.objective <= baseline + 1e-9, f"seed {seed} (oracle)"
        assert external.objective <= baseline + 1e-9, f"seed {seed} (external)"
    print("\nACCEPTANCE C07 do-nothing-dominance: PASS")


def test_c08_fairness_direction(suite_results):
    results, _ = suite_results
    config = SolveConfig(backend="external", time_limit=120.0)
    checked = 0
    for seed, inst, _, _, _ in results[:12]:
        assert inst.budget > 0
        fairness_only = dataclasses.replace(
            inst,
            weights=ObjectiveWeights(
                peak={u: 0.0 for u in inst.measure_ids},
                avg={u: 0.0 for u in inst.measure_ids},
                cost=0.0,
                fairness=1.0,
            ),
        )
        initial = objective_normalizers(fairness_only).fairness_min
        for result in (solve_oracle(fairness_only), solve_external(fairness_only, config)):
            assert result.status == "optimal", f"seed {seed}: {result.message}"
            assert result.breakdown.terms["fairness_value"] >= initial - 1e-9, (
                f"seed {seed} ({result.backend}): fairness went backwards"
            )
            checked += 1
    print(f"\nACCEPTANCE C08 fairness-direction ({checked} solves): PASS")


def test_c09_gini_values():
    assert gini([7.0] * 6 ) == 0.0
    assert abs(gini([0.0, 0.0, 0.0, 1.0]) - 0.75) <= 1e-12
    v = [0.1, 0.4, 1.2, 3.3, 9.0]
    for k in (3.0, 1e-4, 1e7):
        assert abs(gini([k * x for x in v]) - gini(v)) <= 1e-12
    print("\nACCEPTANCE C09 gini-values: PASS")


# SHA-256 of the C10 instance's MPS file, pinned like the TestGoldenBytes digests.
C10_DIGEST = "5a2e0b32992418f5e3ff6b4d733a22141c51f33f4f5a8b24e6ca309fe1d0eda3"


def test_c10_build_scalability(tmp_path):
    inst = generate_synthetic(7, GridDims(100, 100), nbs_count=4, measure_count=4,
                              forbidden_fraction=0.55, pre_existing_fraction=0.05)
    inst = with_clusters(inst, partition_instance(inst, ["UP"]))
    t0 = time.perf_counter()
    model = build_model(inst)
    export_interchange(model, tmp_path / "big.mps")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"build+export took {elapsed:.1f}s"
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    with open(tmp_path / "big.mps", "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    assert digest == C10_DIGEST, "the 100x100 MPS bytes changed"
    assert model.n_variables == expected_variable_count(inst)
    print(f"\nACCEPTANCE C10 build-scalability ({elapsed:.1f}s, "
          f"{peak_gb:.2f} GB peak, {model.n_variables} columns): PASS")
