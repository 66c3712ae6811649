import importlib
import itertools
import os
import shlex
import subprocess
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from nbsopt import GridDims, generate_synthetic
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.engine import Placement, reduction
from nbsopt.instance import ObjectiveWeights
from nbsopt.kernels import Kernel
from nbsopt.model import (
    FEAS_TOL,
    OBJECTIVE_MATCH_TOL,
    VariableLayout,
    Violation,
    build_compact_model,
    build_model,
    check_placement,
    evaluate_solution,
    objective_normalizers,
    objective_terms,
)
from nbsopt.solve import (
    DEFAULT_UNIT_CAP,
    OracleCapExceeded,
    SolveConfig,
    _free_units,
    _unit_arrays,
    count_decision_units,
    parse_solution_file,
    solution_text,
    solve,
    solve_external,
    solve_oracle,
    values_close,
)
from nbsopt.mps import export_interchange, read_mps
from nbsopt.suite import desk_instance, desk_suite

from _helpers import (
    SRC,
    HighsNotRun,
    certify,
    checked_round_trip,
    cluster_demo_instance,
    compact_model,
    constraint_residuals,
    lift,
    make_instance,
    record_answers,
    solve_paper_model,
    solver_cli_template,
    spy_on_highs,
    to_scipy,
    variable_vector,
)

EXTERNAL = SolveConfig(backend="external", time_limit=60.0)


class TestDecisionUnits:
    def test_zero_units_all_forbidden(self):
        all_cells = {(i, j) for i in range(3) for j in range(3)}
        inst = make_instance(np.ones((3, 3)), forbidden=all_cells)
        assert count_decision_units(inst) == 0

    def test_counts_cells_times_types(self):
        inst = generate_synthetic(0, GridDims(2, 2), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        assert count_decision_units(inst) == 8

    def test_cluster_counts_as_one_unit(self):
        inst = cluster_demo_instance()
        assert count_decision_units(inst) == 3


class TestOracle:
    def test_zero_units_returns_do_nothing(self):
        all_cells = {(i, j) for i in range(2) for j in range(2)}
        inst = make_instance(np.ones((2, 2)), forbidden=all_cells - {(0, 1)},
                             pre_existing={(0, 1)})
        result = solve_oracle(inst)
        assert result.status == "optimal"
        assert result.placement.new_cells(inst) == {"GW": []}
        norms = objective_normalizers(inst)
        do_nothing = evaluate_solution(inst, Placement.do_nothing(inst), norms)
        assert result.objective == pytest.approx(do_nothing.total, abs=1e-12)

    def test_two_free_cells_matches_explicit_enumeration(self):
        field = np.array([[9.0, 1.0], [2.0, 8.0]])
        all_cells = {(i, j) for i in range(2) for j in range(2)}
        free = [(0, 0), (1, 1)]
        inst = make_instance(field, forbidden=all_cells - set(free), cost=10.0,
                             budget=15.0)
        # brute force over the four subsets, skipping budget-infeasible ones
        best, norms = None, objective_normalizers(inst)
        for chosen in itertools.chain.from_iterable(
            itertools.combinations(free, k) for k in range(3)
        ):
            if len(chosen) * 10.0 > 15.0:
                continue
            value = evaluate_solution(
                inst, Placement.from_new_cells(inst, {"GW": list(chosen)}), norms
            ).total
            if best is None or value < best[0]:
                best = (value, set(chosen))
        result = solve_oracle(inst)
        assert result.objective == pytest.approx(best[0], abs=1e-12)
        assert set(result.placement.new_cells(inst)["GW"]) == best[1]

    def test_cap_exceeded_raises(self):
        inst = generate_synthetic(0, GridDims(3, 3), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.0, pre_existing_fraction=0.0)
        with pytest.raises(OracleCapExceeded):
            solve_oracle(inst, unit_cap=16)

    def test_deterministic_repeat(self):
        inst = generate_synthetic(5, GridDims(4, 4), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.6, pre_existing_fraction=0.05)
        a = solve_oracle(inst)
        b = solve_oracle(inst)
        assert a.objective == b.objective
        for t in inst.nbs_ids:
            np.testing.assert_array_equal(a.placement.masks[t], b.placement.masks[t])

    def test_returned_placement_passes_checker(self):
        for seed in range(4):
            inst = generate_synthetic(seed, GridDims(4, 4), nbs_count=2, measure_count=2,
                                      forbidden_fraction=0.6, pre_existing_fraction=0.1)
            result = solve_oracle(inst, unit_cap=20)
            assert check_placement(inst, result.placement) == []

    def test_a_bookkeeping_offset_is_an_error(self, monkeypatch):
        # the leaves scored 1e-3 too high: the optimum's direct evaluation
        # disagrees, and the one check of every claim makes that an error
        solve_module = importlib.import_module("nbsopt.solve")
        real = solve_module.objective_terms

        def planted(*args):
            terms = real(*args)
            return {**terms, "total": terms["total"] + 1e-3}

        monkeypatch.setattr(solve_module, "objective_terms", planted)
        result = solve_oracle(desk_suite(1)[0][1])
        assert (result.status, result.backend, result.placement) == ("error", "oracle", None)
        assert result.message.startswith("objective mismatch: solver ")

    def test_an_optimum_the_checker_rejects_is_an_error(self, monkeypatch):
        model_module = importlib.import_module("nbsopt.model")
        monkeypatch.setattr(model_module, "check_placement",
                            lambda *args: [Violation("budget", "planted")])
        result = solve_oracle(desk_suite(1)[0][1])
        assert (result.status, result.message) == ("error", "solver placement violates: budget")

    def test_oracle_optimum_satisfies_milp_rows(self):
        # the oracle never touches the linearization, so embedding its answer
        # back into the model (with the witness y) must satisfy every row
        for seed in (2, 7):
            inst = generate_synthetic(seed, GridDims(4, 4), nbs_count=2, measure_count=1,
                                      forbidden_fraction=0.6, pre_existing_fraction=0.1)
            model = build_model(inst)
            result = solve_oracle(inst, unit_cap=20)
            vals = variable_vector(inst, model, result.placement)
            assert constraint_residuals(model, vals) <= 1e-9


class TestExternal:
    def test_matches_oracle_on_three_by_three(self):
        inst = generate_synthetic(12, GridDims(3, 3), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.45, pre_existing_fraction=0.05)
        assert count_decision_units(inst) <= 16
        a = solve_oracle(inst)
        b = solve_external(inst, EXTERNAL)
        assert b.status == "optimal"
        assert values_close(a.objective, b.objective)

    def test_cluster_all_or_nothing_respected(self):
        inst = cluster_demo_instance()
        result = solve_external(inst, EXTERNAL)
        assert result.status == "optimal"
        cluster = inst.clusters["UP"][0]
        values = {bool(result.placement.masks["UP"][c]) for c in cluster}
        assert len(values) == 1
        assert check_placement(inst, result.placement) == []

    def test_short_time_limit_never_errors(self):
        inst = generate_synthetic(3, GridDims(30, 30), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.3, pre_existing_fraction=0.05)
        result = solve_external(inst, SolveConfig(backend="external", time_limit=1.0))
        assert result.status in ("optimal", "feasible-timeout")
        assert result.placement is not None
        assert check_placement(inst, result.placement) == []

    def test_all_forbidden_zero_budget(self):
        inst = generate_synthetic(1, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=1.0, pre_existing_fraction=0.0)
        inst.budget = 0.0
        result = solve_external(inst, EXTERNAL)
        assert result.status == "optimal"
        assert result.placement.new_cells(inst) == {"GW": []}

    def test_workdir_keeps_files(self, tmp_path):
        inst = generate_synthetic(2, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.7, pre_existing_fraction=0.0)
        cfg = SolveConfig(backend="external", time_limit=60, workdir=tmp_path / "w")
        result = solve_external(inst, cfg)
        assert result.status == "optimal"
        assert (tmp_path / "w" / "model.mps").exists()
        assert (tmp_path / "w" / "solution.sol").exists()

    def test_solve_dispatch(self):
        inst = generate_synthetic(4, GridDims(3, 3), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.8, pre_existing_fraction=0.0)
        assert solve(inst, SolveConfig(backend="oracle")).status == "optimal"
        with pytest.raises(ValueError):
            solve(inst, SolveConfig(backend="nope"))


class TestAvgDomain:
    """zavg is a nonnegative column, so no placement may drive a measure's mean
    reduced value below zero, even one with a better objective."""

    @pytest.fixture
    def inst(self):
        return make_instance(
            np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), delta=4.0, cost=1.0, budget=10.0,
            weights=ObjectiveWeights(peak={"M": 0.5}, avg={"M": 0.5}, cost=0.0, fairness=0.0),
        )

    def test_all_cells_break_the_domain(self, inst):
        placement = Placement.empty(inst)
        placement.masks["GW"][:] = True
        assert [v.family for v in check_placement(inst, placement)] == ["avg_nonneg"]

    @staticmethod
    def every_placement(inst):
        for bits in itertools.product([False, True], repeat=inst.dims.n_cells):
            placement = Placement.empty(inst)
            placement.masks["GW"] = np.array(bits).reshape(inst.dims.shape)
            yield placement

    def test_the_best_placement_ignoring_the_domain_is_rejected(self, inst):
        placements = list(self.every_placement(inst))
        # the objective's peak and mean terms, unchecked; cost and fairness weigh 0
        (scale,), (u,) = objective_normalizers(inst).peak_scale, inst.measures
        reduced = [u.field - reduction(inst, p)[0] for p in placements]
        totals = [0.5 * scale * max(0.0, float(r.max())) + 0.5 * scale * float(r.mean())
                  for r in reduced]
        best = min(totals)
        assert best == pytest.approx(-1 / 72, abs=1e-12)
        winners = [p for p, total in zip(placements, totals) if total == best]
        assert 5 in {int(p.masks["GW"].sum()) for p in winners}
        for p in winners:
            assert [v.family for v in check_placement(inst, p)] == ["avg_nonneg"]

    def test_oracle_and_highs_keep_the_domain(self, inst):
        # installing the one cell takes the mean reduced value to -5e-10, which
        # FEAS_TOL, the one tolerance of the domain, accepts
        edge = make_instance(np.array([[1.0]]), kernel=Kernel(np.array([[2.0]])),
                             delta=1.0 + 5e-10)
        for case, optimum, cells in ((inst, 19 / 72, [(0, 0), (1, 0)]),
                                     (edge, -0.249999975125, [(0, 0)])):
            norms = objective_normalizers(case)
            brute_force = min(evaluate_solution(case, p, norms).total
                              for p in self.every_placement(case)
                              if not check_placement(case, p))
            assert brute_force == pytest.approx(optimum, abs=1e-12)
            for result in (solve_oracle(case), solve_external(case, EXTERNAL)):
                assert result.status == "optimal"
                assert result.objective == pytest.approx(optimum, abs=1e-12)
                assert result.placement.new_cells(case) == {"GW": cells}
                assert check_placement(case, result.placement) == []

    def test_the_compact_optimum_fails_the_certificate(self, inst):
        # without its guard rows and columns, the compact model's optimum
        # breaks the domain; with them, it is the paper optimum
        from nbsopt import solver_cli

        model = build_model(inst)
        guarded = build_compact_model(inst)
        # every cell has a guard binary, so no conv row is an equality
        assert guarded.guarded == {"M": inst.dims.n_cells}
        layout = model.layout
        is_y = np.zeros(guarded.n_variables, dtype=bool)
        is_y[guarded.layout.y_base : guarded.layout.z_base] = True
        a = to_scipy(guarded.a)
        guard_rows = a[:, is_y].getnnz(axis=1) > 0
        relaxed = replace(
            guarded, a=a[~guard_rows][:, ~is_y], sense=guarded.sense[~guard_rows],
            rhs=guarded.rhs[~guard_rows], c=guarded.c[~is_y], lower=guarded.lower[~is_y],
            upper=guarded.upper[~is_y], is_integer=guarded.is_integer[~is_y],
            layout=VariableLayout(inst, guard_cells=guarded.layout.guard_cells[:0]), guarded={},
        )
        for compact, optimum, passes in ((relaxed, 1 / 6, False), (guarded, 19 / 72, True)):
            answer = solver_cli.solve_mps(compact, 60.0)
            assert answer.objective == pytest.approx(optimum, abs=1e-9)
            lifted = lift(model, compact, answer.x)
            # the domain zavg >= 0 is broken without the guard
            assert (lifted[layout.zavg_base] >= 0) == passes
            assert (certify(model, lifted, answer.objective) == "") == passes

    def test_highs_solves_the_guarded_model_once(self, inst, monkeypatch):
        calls = spy_on_highs(monkeypatch)
        result = solve_external(inst, EXTERNAL)
        assert len(calls) == 1
        assert result.status == "optimal"
        assert result.objective == pytest.approx(19 / 72, abs=1e-9)
        assert result.bound == pytest.approx(19 / 72, abs=1e-9)


# Small generated instances on which the compact model guards a measure and
# its optimum without the guard fails the certificate:
# (seed, side, NBS types, measures, first type clustered)
GUARDED = [(204, 5, 1, 4, False), (787, 4, 2, 4, True), (373, 8, 1, 4, True),
           (16, 8, 2, 4, True), (12, 8, 2, 4, False)]


@pytest.mark.parametrize("seed, side, nbs, measures, clustered", GUARDED)
def test_guarded_instances_match_the_paper_model(monkeypatch, seed, side, nbs, measures,
                                                 clustered):
    inst = generate_synthetic(seed, GridDims(side, side), nbs_count=nbs,
                              measure_count=measures, forbidden_fraction=0.5,
                              pre_existing_fraction=0.05)
    if clustered:
        inst = with_clusters(inst, partition_instance(inst, inst.nbs_ids[:1]))
    model = build_model(inst)
    assert compact_model(model).guarded
    calls = spy_on_highs(monkeypatch)
    answers = record_answers(monkeypatch)
    result = solve_external(inst, EXTERNAL)
    assert len(calls) == 1
    assert result.status == "optimal"
    [(compact, answer)] = answers
    assert certify(model, lift(model, compact, answer.x), answer.objective) == ""
    paper = solve_paper_model(inst, model, EXTERNAL)
    assert paper.status == "optimal"
    assert values_close(result.objective, paper.objective)
    if count_decision_units(inst) <= DEFAULT_UNIT_CAP:
        assert values_close(result.objective, solve_oracle(inst).objective)
    # both results pass `report` as `solve --out` writes them
    for solved in (result, paper):
        back = checked_round_trip(inst, solved)
        assert (back.status, back.objective, back.bound) == (
            solved.status, solved.objective, solved.bound)


def test_unit_running_sums_score_as_the_evaluation():
    """Sums of the oracle's unit arrays over random non-overlapping, in-budget
    sets of units, scored by `objective_terms`, give `evaluate_solution`'s
    total and `check_placement`'s verdict on the `zavg >= 0` domain."""
    rng = np.random.default_rng(16)
    verdicts = set()
    for inst in [inst for _, inst in desk_suite(20)] + [_guarded(*case) for case in GUARDED]:
        units = _free_units(inst)
        cover, dz, df, cost = _unit_arrays(inst, units)
        norms = objective_normalizers(inst)
        fields = inst.fields.reshape(len(inst.measures), -1)
        deltas = inst.deltas[:, None]
        for _ in range(8):
            picked, occupied, spent = [], np.zeros(inst.dims.n_cells, dtype=bool), 0.0
            for n in rng.permutation(len(units))[: rng.integers(len(units) + 1)]:
                if not (occupied & cover[n]).any() and spent + cost[n] <= inst.budget:
                    picked.append(n)
                    occupied |= cover[n]
                    spent += cost[n]
            reduced = fields - np.minimum(dz[picked].sum(axis=0), deltas)
            terms = objective_terms(inst, norms, reduced, spent,
                                    norms.fairness_min + sum(df[n] for n in picked))
            placement = Placement.do_nothing(inst)
            for n in picked:
                placement.masks[units[n][1]] |= cover[n].reshape(inst.dims.shape)
            families = {v.family for v in check_placement(inst, placement)}
            assert families <= {"avg_nonneg"}
            in_domain = all(avg >= -FEAS_TOL for avg in terms["avg_value"].values())
            assert in_domain == (not families)
            verdicts.add(in_domain)
            if in_domain:
                total = evaluate_solution(inst, placement, norms=norms).total
                assert values_close(terms["total"], total, rel=1e-12)
    assert verdicts == {True, False}


@pytest.fixture(scope="module")
def problem_instances():
    """The 20 desk-suite instances and the 14x14 seed-4 instance of the
    mid-size benchmark, urban parks clustered."""
    inst = generate_synthetic(4, GridDims(14, 14), nbs_count=4, measure_count=4,
                              forbidden_fraction=0.55, pre_existing_fraction=0.05)
    mid = with_clusters(inst, partition_instance(inst, ["UP"]))
    return [inst for _, inst in desk_suite(20)] + [mid]


class TestInProcess:
    def test_highs_gets_the_problem_the_solver_cli_reads(self, tmp_path, monkeypatch,
                                                         problem_instances):
        # each model reaches HiGHS as the same arrays, bit for bit, whether it
        # is handed over in memory or read back from its MPS file: the paper
        # model, solved as the reference, and the compact model every solve
        # hands its solver, guarded cases included, on which HiGHS need not run
        from nbsopt import solver_cli

        paper_calls = spy_on_highs(monkeypatch)
        for inst in problem_instances:
            model = build_model(inst)
            assert solve_paper_model(inst, model, EXTERNAL).status == "optimal"
            export_interchange(model, tmp_path / "m.mps")
            solver_cli.solve_mps(read_mps(tmp_path / "m.mps"), 60.0)
        compact_calls = spy_on_highs(monkeypatch, run=False)
        instances = problem_instances + [_guarded(*case) for case in GUARDED]
        for inst in instances:
            model = build_compact_model(inst)
            export_interchange(model, tmp_path / "m.mps")
            for problem in (model, read_mps(tmp_path / "m.mps")):
                with pytest.raises(HighsNotRun):
                    solver_cli.solve_mps(problem, 60.0)
        assert len(compact_calls) == 2 * len(instances)
        assert len(paper_calls) == 2 * len(problem_instances)
        calls = paper_calls + compact_calls
        for mem, file in zip(calls[::2], calls[1::2]):
            for name in ("c", "row_lower", "row_upper", "integrality", "col_lower", "col_upper"):
                assert _same_bits(mem[name], file[name]), name
            a_mem, a_file = mem["a"], file["a"]
            assert to_scipy(a_mem).has_sorted_indices and to_scipy(a_file).has_sorted_indices
            assert a_mem.shape == a_file.shape
            for name in ("indptr", "indices", "data"):
                assert _same_bits(getattr(a_mem, name), getattr(a_file, name)), name
            assert mem["options"] == file["options"]

    def test_matches_the_solver_cli_template(self, monkeypatch, problem_instances):
        template = SolveConfig(backend="external", time_limit=60.0,
                               solver_cmd=solver_cli_template())
        answers = record_answers(monkeypatch)
        for inst in problem_instances:
            paper = solve_paper_model(inst, build_model(inst), EXTERNAL)
            a = solve_external(inst, EXTERNAL)
            b = solve_external(inst, template)
            (_, _), (_, in_process), (_, through_file) = answers
            answers.clear()
            # the compact model in-process and through the template: bit for bit
            assert (a.status, a.objective, a.bound) == (b.status, b.objective, b.bound)
            assert _same_bits(in_process.x, through_file.x)
            for t in inst.nbs_ids:
                np.testing.assert_array_equal(a.placement.masks[t], b.placement.masks[t])
            # the paper model: the same optimum, up to ties between placements
            assert paper.status == a.status == "optimal"
            assert values_close(a.objective, paper.objective, OBJECTIVE_MATCH_TOL)
            for result in (paper, a):
                assert result.bound <= result.objective + 1e-6
                assert check_placement(inst, result.placement) == []

    @pytest.mark.parametrize("template", [None, solver_cli_template()],
                             ids=["in-process", "solver-cli"])
    def test_normalizers_computed_once_per_solve(self, monkeypatch, template):
        from nbsopt import model as model_module

        monkeypatch.delenv("NBSOPT_SOLVER_CMD", raising=False)
        calls = []
        real = model_module.objective_normalizers

        def spy(inst):
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(model_module, "objective_normalizers", spy)
        _, inst = desk_suite(1)[0]
        cfg = SolveConfig(backend="external", time_limit=60.0, solver_cmd=template)
        assert solve_external(inst, cfg).status == "optimal"
        assert len(calls) == 1

    def test_workdir_files_describe_the_solve(self, tmp_path):
        # the compact model that was solved, and its answer, as the bundled
        # solver command leaves them, apart from the wall time
        from nbsopt import solver_cli

        def lines(path):
            text = path.read_text(encoding="utf-8")
            return [line for line in text.splitlines() if not line.startswith("# walltime ")]

        small = generate_synthetic(2, GridDims(3, 3), nbs_count=1, measure_count=1,
                                   forbidden_fraction=0.7, pre_existing_fraction=0.0)
        for k, inst in enumerate((small, _guarded(*GUARDED[0]))):
            kept, through = tmp_path / f"w{k}", tmp_path / f"t{k}"
            result = solve_external(inst, replace(EXTERNAL, workdir=kept))
            assert result.status == "optimal"
            model = build_compact_model(inst)
            export_interchange(model, tmp_path / "compact.mps")
            assert (kept / "model.mps").read_bytes() == (tmp_path / "compact.mps").read_bytes()
            assert solver_cli.main([str(kept / "model.mps"), str(tmp_path / "cli.sol"), "60.0",
                                    "--gap", "0.0"]) == 0
            assert lines(kept / "solution.sol") == lines(tmp_path / "cli.sol")
            # a solver command leaves the same files
            template = replace(EXTERNAL, workdir=through, solver_cmd=solver_cli_template())
            assert solve_external(inst, template).status == "optimal"
            assert (through / "model.mps").read_bytes() == (kept / "model.mps").read_bytes()
            assert lines(through / "solution.sol") == lines(kept / "solution.sol")
            answer = parse_solution_file(kept / "solution.sol", model)
            assert (answer.status, answer.bound) == ("optimal", result.bound)
            assert values_close(answer.objective, result.objective)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # nor the HiGHS binding, which the first solve loads
        code = ("import sys, nbsopt; print('scipy.optimize' in sys.modules, "
                "'scipy.optimize._highspy._core' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.stdout.split() == ["False", "False"]


class TestCompactSolve:
    def test_highs_gets_the_paper_matrix_sliced(self, monkeypatch, problem_instances):
        calls = spy_on_highs(monkeypatch)
        answers = record_answers(monkeypatch)
        for inst in problem_instances:
            model = build_model(inst)
            result = solve_external(inst, EXTERNAL)
            assert result.status == "optimal"
            [call] = calls
            calls.clear()
            [(compact, answer)] = answers
            answers.clear()

            # column map: y, zavg and f dropped, and the x of every (type,
            # cell) pair that is not eligible, each z onto its zbar
            layout = model.layout
            kind = np.array([name.split("_")[0] for name in layout.column_names()])
            fixed = np.zeros(model.n_variables, dtype=bool)
            fixed[: layout.y_base] = ~inst.eligible.ravel()
            kept = np.flatnonzero(~np.isin(kind, ["y", "z", "zavg", "f"]) & ~fixed)
            target = np.full(model.n_variables, -1)
            target[kept] = np.arange(len(kept))
            z = np.flatnonzero(kind == "z")
            target[z] = target[np.flatnonzero(kind == "zbar")]
            mapped = np.flatnonzero(target >= 0)
            column_map = sparse.csr_matrix(
                (np.ones(len(mapped)), (mapped, target[mapped])),
                shape=(model.n_variables, len(kept)),
            )
            # row mask: every family but the big-M, fairness, forbidden and
            # pre_existing rows, no row the column map leaves empty, and no
            # one_type row it leaves with one entry
            tags = np.concatenate([[b.tag] * len(b.labels) for b in model.constraints])
            mapped_a = to_scipy(model.a) @ column_map
            rows = ~np.isin(tags, ["bigm", "fairness", "forbidden", "pre_existing"])
            rows &= mapped_a.getnnz(axis=1) > np.where(tags == "one_type", 1, 0)
            # the x of a pre-existing cell is 1
            pre = inst.pre_existing.ravel()
            rhs = model.rhs - to_scipy(model.a)[:, : layout.y_base] @ pre
            expected = sparse.csr_matrix(mapped_a[rows])
            expected.sort_indices()
            seen = call["a"]
            assert to_scipy(seen).has_sorted_indices
            assert seen.shape == expected.shape
            np.testing.assert_array_equal(seen.indptr, expected.indptr)
            np.testing.assert_array_equal(seen.indices, expected.indices)
            np.testing.assert_array_equal(seen.data, expected.data)

            # conv and avg rows become <= rows; the others keep their sense
            sense = model.sense[rows]
            relaxed = np.isin(tags[rows], ["conv", "avg"])
            lb, ub = call["row_lower"], call["row_upper"]
            np.testing.assert_array_equal(np.isneginf(lb), relaxed | (sense == "<="))
            np.testing.assert_array_equal(np.isposinf(ub), sense == ">=")
            np.testing.assert_array_equal(lb[np.isfinite(lb)], rhs[rows][np.isfinite(lb)])
            np.testing.assert_array_equal(ub[np.isfinite(ub)], rhs[rows][np.isfinite(ub)])

            # zbar is capped at delta; every other bound and integrality is kept
            deltas = np.repeat(inst.deltas, layout.n_cells)
            upper = model.upper[kept]
            upper[kind[kept] == "zbar"] = deltas
            np.testing.assert_array_equal(call["col_upper"], upper)
            np.testing.assert_array_equal(call["col_lower"], model.lower[kept])
            np.testing.assert_array_equal(call["integrality"], model.is_integer[kept])

            # a paper solution keeps its objective in the compact model
            paper = variable_vector(inst, model, result.placement)
            objective = call["c"] @ paper[kept] + compact_model(model).objective_constant
            assert objective == pytest.approx(paper @ model.c + model.objective_constant, abs=1e-9)
            assert constraint_residuals(model, lift(model, compact, answer.x)) <= 1e-9

    def test_no_incumbent_is_verified_without_the_paper_model(self, monkeypatch):
        # the compact model's status and bound are the paper model's
        inst = generate_synthetic(3, GridDims(6, 6), nbs_count=2, measure_count=1,
                                  forbidden_fraction=0.7, pre_existing_fraction=0.0)
        calls = spy_on_highs(monkeypatch)
        result = solve_external(inst, SolveConfig(backend="external", time_limit=0))
        assert len(calls) == 1
        assert result.status == "feasible-timeout"
        assert result.placement.new_cells(inst) == {t: [] for t in inst.nbs_ids}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_compact_matches_the_oracle(self, seed):
        inst = desk_instance(seed)
        assume(inst is not None)
        oracle = solve_oracle(inst)
        compact = solve_external(inst, EXTERNAL)
        assert (oracle.status, compact.status) == ("optimal", "optimal")
        assert values_close(compact.objective, oracle.objective)
        assert check_placement(inst, compact.placement) == []

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        side=st.integers(4, 10),
        nbs=st.integers(1, 3),
        measures=st.integers(1, 3),
        forbidden=st.floats(0.3, 0.8),
        clustered=st.booleans(),
    )
    def test_compact_matches_the_paper_model(self, seed, side, nbs, measures, forbidden,
                                             clustered):
        inst = generate_synthetic(seed, GridDims(side, side), nbs_count=nbs,
                                  measure_count=measures, forbidden_fraction=forbidden,
                                  pre_existing_fraction=0.05)
        if clustered:
            inst = with_clusters(inst, partition_instance(inst, inst.nbs_ids[:1]))
        model = build_model(inst)
        paper = solve_paper_model(inst, model, EXTERNAL)
        compact = solve_external(inst, EXTERNAL)
        assert (paper.status, compact.status) == ("optimal", "optimal")
        assert values_close(compact.objective, paper.objective)
        for result in (paper, compact):
            assert check_placement(inst, result.placement) == []


def _clustered(seed: int, side: int):
    """A benchmark-style instance: 4 NBS types, 4 measures, urban parks clustered."""
    inst = generate_synthetic(seed, GridDims(side, side), nbs_count=4, measure_count=4,
                              forbidden_fraction=0.55, pre_existing_fraction=0.05)
    return with_clusters(inst, partition_instance(inst, ["UP"]))


def _guarded(seed, side, nbs, measures, clustered):
    inst = generate_synthetic(seed, GridDims(side, side), nbs_count=nbs,
                              measure_count=measures, forbidden_fraction=0.5,
                              pre_existing_fraction=0.05)
    return with_clusters(inst, partition_instance(inst, inst.nbs_ids[:1])) if clustered else inst


# The desk suite, the mid-size benchmark's sizes, every guarded case and the
# guarded 20x20 seed-3 instance, by a label and a builder.
BUILT_CASES = (
    [(f"desk-{seed}", lambda seed=seed: desk_instance(seed)) for seed, _ in desk_suite(20)]
    + [(f"mid-{side}", lambda side=side: _clustered(4, side)) for side in (12, 14, 16, 18)]
    + [(f"guarded-{case[0]}", lambda case=case: _guarded(*case)) for case in GUARDED]
    + [("20x20-s3", lambda: _clustered(3, 20))]
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        a, b = a.astype(float).view(np.uint64), b.astype(float).view(np.uint64)
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("label, make", BUILT_CASES, ids=[label for label, _ in BUILT_CASES])
def test_highs_gets_the_arrays_sliced_from_the_paper_model(monkeypatch, label, make):
    # the compact model built from the instance is, bit for bit, the one
    # sliced from the paper model's matrix; HiGHS runs on neither
    from nbsopt import solver_cli

    inst = make()
    calls = spy_on_highs(monkeypatch, run=False)
    with pytest.raises(HighsNotRun):
        solve_external(inst, EXTERNAL)
    with pytest.raises(HighsNotRun):
        solver_cli.solve_mps(compact_model(build_model(inst)), EXTERNAL.time_limit, EXTERNAL.gap)
    built, sliced = calls
    for name in ("c", "row_lower", "row_upper", "col_lower", "col_upper", "integrality"):
        assert _same_bits(built[name], sliced[name]), name
    assert built["a"].shape == sliced["a"].shape
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(built["a"], name), getattr(sliced["a"], name)), name
    assert built["options"] == sliced["options"]


@pytest.mark.parametrize("label, make", BUILT_CASES, ids=[label for label, _ in BUILT_CASES])
def test_stacked_rows_match_scipy(monkeypatch, label, make):
    # each model's rows, before stacking, summed into scipy's canonical CSR
    # form give the very arrays of the stacked matrix
    model_module = importlib.import_module("nbsopt.model")
    real, stacked = model_module._stack, []

    def spy(families, n_cols):
        counts, indices, coeffs = (np.concatenate([getattr(f, name) for f in families])
                                   for name in ("counts", "indices", "coeffs"))
        indptr = np.r_[0, np.cumsum(counts)]
        expected = sparse.csr_matrix((coeffs, indices, indptr), shape=(len(counts), n_cols))
        expected.sum_duplicates()
        stacked.append(expected)
        return real(families, n_cols)

    monkeypatch.setattr(model_module, "_stack", spy)
    inst = make()
    models = [build_model(inst), build_compact_model(inst)]
    assert len(stacked) == len(models)
    for model, expected in zip(models, stacked):
        assert model.a.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert _same_bits(getattr(model.a, name), getattr(expected, name)), name


# The instances the routes below solve with the paper model refused; the
# solver-cli route runs the bundled solver as a command.
NO_PAPER_INSTANCES = {"desk-1": desk_instance(1), "guarded": _guarded(*GUARDED[0])}
ROUTES = ("in-process", "workdir", "solver-cli")
ROUTE_CASES = list(itertools.product(ROUTES, NO_PAPER_INSTANCES))


@pytest.mark.parametrize(
    "route, label", ROUTE_CASES,
    ids=[label if route == "in-process" else f"{label}-{route}" for route, label in ROUTE_CASES],
)
def test_the_default_solve_builds_no_paper_model(monkeypatch, tmp_path, route, label):
    # every route hands its solver the compact model; the in-process route
    # without a workdir writes no file either
    model, mps, solve_module = (
        importlib.import_module(f"nbsopt.{name}") for name in ("model", "mps", "solve")
    )

    def refuse(*args, **kwargs):
        raise AssertionError(f"the {route} solve reached a refused function")

    monkeypatch.setattr(model, "build_model", refuse)
    if route == "in-process":
        for module in (mps, solve_module):
            monkeypatch.setattr(module, "export_interchange", refuse)
    assert not hasattr(model, "lift") and not hasattr(solve_module, "build_model")
    monkeypatch.delenv("NBSOPT_SOLVER_CMD", raising=False)
    config = replace(
        EXTERNAL,
        workdir=tmp_path / "w" if route == "workdir" else None,
        solver_cmd=solver_cli_template() if route == "solver-cli" else None,
    )
    assert solve_external(NO_PAPER_INSTANCES[label], config).status == "optimal"


# HiGHS's options on every model but for feasibility jump, at EXTERNAL's
# time limit and gap
BASE_OPTIONS = {"log_to_console": False, "presolve": "on", "time_limit": 60.0,
                "mip_rel_gap": 0.0}
FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def test_feasibility_jump_runs_only_where_a_ge_row_holds_an_integer_column(monkeypatch):
    # the desk models' only >= rows are peak rows on continuous columns; the
    # guard rows and the paper model's big-M rows are >= rows on binaries,
    # so those models reach HiGHS with its defaults
    from nbsopt import solver_cli

    calls = spy_on_highs(monkeypatch, run=False)
    desk = [inst for _, inst in desk_suite(20)]
    for inst in desk + [_guarded(*case) for case in GUARDED]:
        with pytest.raises(HighsNotRun):
            solve_external(inst, EXTERNAL)
    with pytest.raises(HighsNotRun):
        solver_cli.solve_mps(build_model(desk[0]), EXTERNAL.time_limit, EXTERNAL.gap)
    options = [call["options"] for call in calls]
    assert len(options) == len(desk) + len(GUARDED) + 1
    assert options[:len(desk)] == [{**BASE_OPTIONS, FEASIBILITY_JUMP: False}] * len(desk)
    assert options[len(desk):] == [{**BASE_OPTIONS, FEASIBILITY_JUMP: True}] * (len(GUARDED) + 1)


@pytest.mark.parametrize("label", NO_PAPER_INSTANCES)
def test_the_solver_cli_passes_the_in_process_options(monkeypatch, tmp_path, label):
    # `python -m nbsopt.solver_cli` runs `main` on the exported file: the
    # same options as the in-process solve of the model
    from nbsopt import solver_cli

    inst = NO_PAPER_INSTANCES[label]
    calls = spy_on_highs(monkeypatch, run=False)
    with pytest.raises(HighsNotRun):
        solve_external(inst, EXTERNAL)
    export_interchange(build_compact_model(inst), tmp_path / "model.mps")
    with pytest.raises(HighsNotRun):
        solver_cli.main([str(tmp_path / "model.mps"), str(tmp_path / "solution.sol"),
                         "60.0", "--gap", "0.0"])
    in_process, through_file = (call["options"] for call in calls)
    assert in_process == through_file == {**BASE_OPTIONS, FEASIBILITY_JUMP: label == "guarded"}


@pytest.mark.parametrize("label, make", BUILT_CASES, ids=[label for label, _ in BUILT_CASES])
def test_each_model_names_its_own_columns(label, make):
    inst = make()
    paper, compact = build_model(inst), build_compact_model(inst)
    for built in (paper, compact):
        names = built.layout.column_names()
        assert len(names) == len(set(names)) == built.n_variables
    # a compact column has the name of its paper column: the eligible (type,
    # cell) pairs' x, the guard cells' y, zbar, zmax and lam
    p, c = paper.layout, compact.layout
    eligible = np.flatnonzero(inst.eligible)
    columns = np.r_[p.x_base + eligible, p.y_base + c.guard_cells, p.zbar_base : p.zavg_base,
                    p.lam_base : p.n_variables]
    paper_names = np.array(paper.layout.column_names())
    assert compact.layout.column_names() == paper_names[columns].tolist()
    n, h = c.n_cells, c.height
    u, cell = np.divmod(c.guard_cells, n)
    guard_names = [f"y_u{a}_i{b // h}_j{b % h}" for a, b in zip(u.tolist(), cell.tolist())]
    assert [name for name in compact.layout.column_names() if name.startswith("y_")] == guard_names
    assert len(guard_names) == sum(compact.guarded.values())


def _free_pairs(inst) -> list[tuple[int, int, int]]:
    """(type index, i, j) of every (type, cell) pair whose x is not fixed:
    the cell is neither forbidden for the type nor pre-existing for any."""
    taken = set().union(*inst.masks.pre_existing.values())
    return [(ti, i, j) for ti, t in enumerate(inst.nbs_ids)
            for i in range(inst.dims.width) for j in range(inst.dims.height)
            if (i, j) not in inst.masks.forbidden[t] | taken]


# The desk suite, the mid-size benchmark's sizes and one guarded case.
STRUCTURE_CASES = [case for case in BUILT_CASES if case[0].startswith(("desk-", "mid-"))]
STRUCTURE_CASES.append(("guarded-204", lambda: _guarded(*GUARDED[0])))


@pytest.mark.parametrize("label, make", STRUCTURE_CASES,
                         ids=[label for label, _ in STRUCTURE_CASES])
def test_the_compact_model_solves_over_the_free_pairs(monkeypatch, label, make):
    inst = make()
    compact, paper = build_compact_model(inst), build_model(inst)
    # one x column per free (type, cell) pair, named as the paper model names it
    free = _free_pairs(inst)
    names = [name for name in compact.layout.column_names() if name.startswith("x_")]
    assert names == [f"x_t{t}_i{i}_j{j}" for t, i, j in free]
    assert len(free) < len(inst.nbs_ids) * inst.dims.n_cells
    assert set(names) <= set(paper.layout.column_names())
    # no row fixes a column, and every row has an entry
    assert {b.tag for b in compact.constraints}.isdisjoint({"forbidden", "pre_existing"})
    rows = [name for block in compact.constraints for name in block.row_names()]
    assert not any(name.startswith(("forbid_", "pre_")) for name in rows)
    assert np.diff(compact.a.indptr).min() > 0
    # the answer, lifted into the paper model, is a solution at its objective
    answers = record_answers(monkeypatch)
    result = solve_external(inst, EXTERNAL)
    assert result.status == "optimal"
    [(solved, answer)] = answers
    lifted = lift(paper, solved, answer.x)
    assert certify(paper, lifted, answer.objective) == ""
    assert values_close(float(lifted @ paper.c) + paper.objective_constant, result.objective,
                        OBJECTIVE_MATCH_TOL)


def test_the_verbose_line_counts_the_fixed_pairs(monkeypatch, caplog):
    inst = desk_instance(1)
    fixed = len(inst.nbs_ids) * inst.dims.n_cells - len(_free_pairs(inst))
    assert fixed > 0
    monkeypatch.delenv("NBSOPT_SOLVER_CMD", raising=False)
    with caplog.at_level("INFO", logger="nbsopt.solve"):
        assert solve_external(inst, EXTERNAL).status == "optimal"
    assert f"{fixed} fixed (cell, type) pairs left out" in caplog.text


class TestSolutionParsing:
    @pytest.fixture
    def setup(self):
        inst = generate_synthetic(6, GridDims(2, 2), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.0)
        return inst, build_model(inst)

    def test_metadata_and_values(self, tmp_path, setup):
        _, model = setup
        p = tmp_path / "s.sol"
        p.write_text(
            "# solver test\n# status optimal\n# objective 1.5\n# bound oops\n\n"
            "x_t0_i0_j1 1.0\nweird line with stuff\nbad value notanumber\n"
        )
        answer = parse_solution_file(p, model)
        assert (answer.status, answer.objective, answer.bound, answer.message) == (
            "optimal", 1.5, None, "")
        expected = np.zeros(model.n_variables)
        expected[1] = 1.0
        np.testing.assert_array_equal(answer.x, expected)

    def test_a_file_without_column_lines_states_no_vector(self, tmp_path, setup):
        _, model = setup
        p = tmp_path / "s.sol"
        p.write_text("# status infeasible\n")
        answer = parse_solution_file(p, model)
        assert (answer.status, answer.x, answer.objective) == ("infeasible", None, None)

    def test_unknown_variable_names_ignored_with_warning(self, tmp_path, caplog, setup):
        inst, model = setup
        from nbsopt.solve import placement_from_values

        p = tmp_path / "s.sol"
        p.write_text("# status optimal\nmystery_var 1.0\n")
        with caplog.at_level("WARNING"):
            answer = parse_solution_file(p, model)
            placement = placement_from_values(inst, model, answer.x)
        assert "mystery_var" in caplog.text
        np.testing.assert_array_equal(answer.x, np.zeros(model.n_variables))
        assert all(not placement.masks[t].any() for t in inst.nbs_ids)


class FakeSolverScript:
    """Writes a solver stub script that emits a fixed solution file."""

    def __init__(self, tmp_path, body: str):
        self.path = tmp_path / "fake_solver.py"
        self.path.write_text(
            "import sys\n"
            "model, solution, timelimit = sys.argv[1:4]\n"
            f"open(solution, 'w').write({body!r})\n"
        )

    def template(self) -> str:
        return f"{shlex.quote(sys.executable)} {shlex.quote(str(self.path))} {{model}} {{solution}} {{timelimit}}"


class TestExternalContract:
    def make_inst(self):
        return generate_synthetic(8, GridDims(2, 2), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.0)

    def test_objective_mismatch_is_an_error(self, tmp_path):
        inst = self.make_inst()
        fake = FakeSolverScript(
            tmp_path, "# status optimal\n# objective 999.0\nx_t0_i0_j0 0.0\n"
        )
        cfg = SolveConfig(backend="external", time_limit=10, solver_cmd=fake.template())
        result = solve_external(inst, cfg)
        assert result.status == "error"
        assert "mismatch" in result.message

    def test_infeasible_status_propagates(self, tmp_path):
        inst = self.make_inst()
        fake = FakeSolverScript(tmp_path, "# status infeasible\n")
        cfg = SolveConfig(backend="external", time_limit=10, solver_cmd=fake.template())
        result = solve_external(inst, cfg)
        assert result.status == "infeasible"
        assert result.placement is None

    def test_no_incumbent_falls_back_to_do_nothing(self, tmp_path):
        inst = self.make_inst()
        fake = FakeSolverScript(tmp_path, "# status no-incumbent\n# bound 0.0\n")
        cfg = SolveConfig(backend="external", time_limit=10, solver_cmd=fake.template())
        result = solve_external(inst, cfg)
        assert result.status == "feasible-timeout"
        assert result.placement is not None
        assert result.placement.new_cells(inst) == {"GW": []}

    def test_violating_solution_is_an_error(self, tmp_path):
        # the model has a column for every eligible cell; together they cost
        # more than the budget
        inst = self.make_inst()
        cells = np.argwhere(inst.eligible[inst.nbs_ids.index("GW")]).tolist()
        assert len(cells) * inst.nbs[inst.nbs_ids.index("GW")].cost > inst.budget
        values = "".join(f"x_t0_i{i}_j{j} 1.0\n" for i, j in cells)
        fake = FakeSolverScript(tmp_path, f"# status optimal\n# objective 0.0\n{values}")
        cfg = SolveConfig(backend="external", time_limit=10, solver_cmd=fake.template())
        result = solve_external(inst, cfg)
        assert result.status == "error"
        assert "budget" in result.message

    @pytest.mark.parametrize("status", ["optimal", "feasible-timeout"])
    def test_a_solution_without_values_is_an_error(self, tmp_path, status):
        fake = FakeSolverScript(tmp_path, f"# status {status}\n")
        cfg = SolveConfig(backend="external", time_limit=10, solver_cmd=fake.template())
        result = solve_external(self.make_inst(), cfg)
        assert result.status == "error"
        assert result.message == f"solver reported status {status!r} but no column values"

    def test_infinite_time_limit_sets_no_timeout(self, tmp_path):
        inst = self.make_inst()
        fake = FakeSolverScript(tmp_path, "# status infeasible\n")
        cfg = SolveConfig(backend="external", time_limit=float("inf"),
                          solver_cmd=fake.template())
        assert solve_external(inst, cfg).status == "infeasible"

    def test_env_var_supplies_template(self, tmp_path, monkeypatch):
        inst = self.make_inst()
        fake = FakeSolverScript(tmp_path, "# status infeasible\n")
        monkeypatch.setenv("NBSOPT_SOLVER_CMD", fake.template())
        result = solve_external(inst, SolveConfig(backend="external", time_limit=10))
        assert result.status == "infeasible"

    def test_solver_crash_is_an_error(self, tmp_path):
        inst = self.make_inst()
        bad = tmp_path / "crash.py"
        bad.write_text("import sys; sys.exit(3)\n")
        cfg = SolveConfig(
            backend="external", time_limit=10,
            solver_cmd=f"{shlex.quote(sys.executable)} {shlex.quote(str(bad))} {{model}} {{solution}} {{timelimit}}",
        )
        result = solve_external(inst, cfg)
        assert result.status == "error"
        assert "exited with 3" in result.message


class TestSolverCli:
    @pytest.mark.parametrize("name, value", [("mip_heuristic_run_feasibility_jumpx", True),
                                             ("presolve", "onn")])
    def test_an_option_highs_rejects_is_an_error(self, name, value):
        from nbsopt import solver_cli
        from nbsopt.model import CsrMatrix

        one = np.ones(1)
        a = CsrMatrix(np.array([0, 1]), np.array([0], dtype=np.int32), one, (1, 1))
        with pytest.raises(ValueError, match=f"HiGHS rejects option {name}={value!r}"):
            solver_cli._run_highs({name: value}, c=one, a=a, row_lower=one, row_upper=one,
                                  col_lower=0 * one, col_upper=one,
                                  integrality=np.zeros(1, dtype=np.int32))

    @pytest.mark.parametrize("dual_bound", [-0.25, -np.inf])
    def test_no_incumbent_keeps_a_finite_dual_bound(self, monkeypatch, caplog, dual_bound):
        # HiGHS stopped at its limit with no solution, stubbed: a finite dual
        # bound is kept, with the objective constant, and an infinite one is not
        from nbsopt import solver_cli

        info = SimpleNamespace(objective_function_value=np.inf, mip_dual_bound=dual_bound,
                               mip_node_count=3, mip_gap=np.inf, primal_dual_integral=1.5,
                               primal_solution_status=0)
        stopped = SimpleNamespace(getModelStatus=lambda: solver_cli._MODEL.kTimeLimit,
                                  getInfo=lambda: info,
                                  modelStatusToString=lambda status: "Time limit reached",
                                  solutionStatusToString=lambda status: "None")
        monkeypatch.setattr(solver_cli, "_run_highs", lambda options, **arrays: stopped)
        inst = desk_instance(1)
        model = build_compact_model(inst)
        answer = solver_cli.solve_mps(model, 1.0)
        bound = dual_bound + model.objective_constant if np.isfinite(dual_bound) else None
        assert (answer.status, answer.x, answer.objective) == ("no-incumbent", None, None)
        assert answer.bound == bound
        assert (answer.mip_node_count, answer.primal_dual_integral) == (3, 1.5)
        text = solution_text(model.layout.column_names(), answer, 1.0)
        assert (f"# bound {bound!r}" in text.splitlines()) == (bound is not None)

        monkeypatch.delenv("NBSOPT_SOLVER_CMD", raising=False)
        with caplog.at_level("INFO", logger="nbsopt.solve"):
            result = solve_external(inst, EXTERNAL)
        assert (result.status, result.bound) == ("feasible-timeout", bound)
        assert result.placement.new_cells(inst) == {t: [] for t in inst.nbs_ids}
        assert "3 nodes, MIP gap inf, primal-dual integral 1.5" in caplog.text

    def test_an_incumbent_without_a_finite_dual_bound_claims_no_bound(self, monkeypatch):
        # HiGHS stopped at its limit with a solution but no finite dual bound,
        # stubbed: the answer states no bound, so the result claims no gap
        from nbsopt import solver_cli

        model = build_compact_model(desk_instance(1))
        info = SimpleNamespace(objective_function_value=0.5, mip_dual_bound=-np.inf,
                               mip_node_count=0, mip_gap=np.inf, primal_dual_integral=0.0)
        stopped = SimpleNamespace(getModelStatus=lambda: solver_cli._MODEL.kTimeLimit,
                                  getInfo=lambda: info,
                                  modelStatusToString=lambda status: "Time limit reached",
                                  getSolution=lambda: SimpleNamespace(
                                      col_value=[0.0] * model.n_variables))
        monkeypatch.setattr(solver_cli, "_run_highs", lambda options, **arrays: stopped)
        answer = solver_cli.solve_mps(model, 1.0)
        assert (answer.status, answer.objective, answer.bound) == (
            "feasible-timeout", 0.5 + model.objective_constant, None)

    def test_primal_dual_integral_only_for_a_mip(self):
        from nbsopt import solver_cli

        model = build_compact_model(desk_instance(1))
        mip = solver_cli.solve_mps(model, 60.0)
        relaxed = solver_cli.solve_mps(replace(model, is_integer=np.zeros_like(model.is_integer)),
                                       60.0)
        assert (mip.status, relaxed.status) == ("optimal", "optimal")
        assert isinstance(mip.primal_dual_integral, float) and mip.primal_dual_integral >= 0
        assert relaxed.primal_dual_integral is None

    def test_infeasible_model_reported(self, tmp_path):
        from nbsopt import solver_cli

        mps = tmp_path / "bad.mps"
        mps.write_text(
            "NAME bad\nROWS\n N obj\n G lower\n L upper\nCOLUMNS\n"
            " x obj 1.0\n x lower 1.0\n x upper 1.0\n"
            "RHS\n rhs lower 1.0\n rhs upper 0.0\nBOUNDS\n UP bnd x 5.0\nENDATA\n"
        )
        out = tmp_path / "bad.sol"
        assert solver_cli.main([str(mps), str(out), "10"]) == 0
        lines = out.read_text().splitlines()
        assert "# status infeasible" in lines
        assert ("# message The problem is infeasible. (HiGHS Status 8: model_status is "
                "Infeasible; primal_status is None)") in lines
        assert all(line.startswith("#") for line in lines)  # no column values

    def test_unbounded_model_reported(self, tmp_path):
        from nbsopt import solver_cli

        # x - y <= 4 with y free above: the objective -x falls along y
        mps = tmp_path / "unbounded.mps"
        mps.write_text(
            "NAME unbounded\nROWS\n N obj\n L cap\nCOLUMNS\n"
            " x obj -1.0\n x cap 1.0\n y cap -1.0\nRHS\n rhs cap 4.0\nENDATA\n"
        )
        out = tmp_path / "unbounded.sol"
        assert solver_cli.main([str(mps), str(out), "10"]) == 0
        lines = out.read_text().splitlines()
        assert "# status unbounded" in lines
        assert all(line.startswith("#") for line in lines)  # no column values

    def test_reports_objective_with_constant(self, tmp_path):
        from nbsopt import solver_cli

        inst = generate_synthetic(9, GridDims(2, 2), nbs_count=1, measure_count=1,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.0)
        model = build_model(inst)
        from nbsopt.mps import export_interchange

        mps = tmp_path / "m.mps"
        export_interchange(model, mps)
        out = tmp_path / "m.sol"
        assert solver_cli.main([str(mps), str(out), "30"]) == 0
        answer = parse_solution_file(out, model)
        assert answer.status == "optimal"
        assert answer.objective == pytest.approx(
            answer.x @ model.c + model.objective_constant, abs=1e-9
        )

    def test_integer_unbounded_model_reported(self, tmp_path, monkeypatch):
        from nbsopt import solver_cli

        # the model above with x integer: HiGHS's MIP presolve finds it
        # unbounded or infeasible, and a run without presolve tells which
        mps = tmp_path / "unbounded.mps"
        mps.write_text(
            "NAME unbounded\nROWS\n N obj\n L cap\nCOLUMNS\n"
            " MARKER 'MARKER' 'INTORG'\n x obj -1.0\n x cap 1.0\n MARKER 'MARKER' 'INTEND'\n"
            " y cap -1.0\nRHS\n rhs cap 4.0\nBOUNDS\n PL bnd x\nENDATA\n"
        )
        calls = spy_on_highs(monkeypatch)
        out = tmp_path / "unbounded.sol"
        assert solver_cli.main([str(mps), str(out), "10"]) == 0
        lines = out.read_text().splitlines()
        assert "# status unbounded" in lines
        assert all(line.startswith("#") for line in lines)  # no column values

        first, second = calls
        assert first["options"]["presolve"] == "on"
        assert second["options"]["presolve"] == "off"
        assert 0.0 <= second["options"]["time_limit"] <= 10.0
        assert second["options"] == {**first["options"], "presolve": "off",
                                     "time_limit": second["options"]["time_limit"]}
        for name, value in first.items():
            if name != "options":
                assert second[name] is value, name

    def test_integer_infeasible_model_reported(self, tmp_path):
        from nbsopt import solver_cli

        # 1 <= 2x <= 1.5 has no integer solution
        mps = tmp_path / "bad.mps"
        mps.write_text(
            "NAME bad\nROWS\n N obj\n G lower\n L upper\nCOLUMNS\n"
            " MARKER 'MARKER' 'INTORG'\n x obj 1.0\n x lower 2.0\n x upper 2.0\n"
            " MARKER 'MARKER' 'INTEND'\nRHS\n rhs lower 1.0\n rhs upper 1.5\n"
            "BOUNDS\n PL bnd x\nENDATA\n"
        )
        out = tmp_path / "bad.sol"
        assert solver_cli.main([str(mps), str(out), "10"]) == 0
        lines = out.read_text().splitlines()
        assert "# status infeasible" in lines
        assert all(line.startswith("#") for line in lines)

    def test_highs_debug_output_kept_off_stdout(self, capfd):
        from nbsopt import solver_cli

        # on this instance the bundled HiGHS prints a debug line during the
        # MIP search, whatever its log options
        inst = generate_synthetic(3, GridDims(18, 18), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.05)
        inst = with_clusters(inst, partition_instance(inst, ["UP"]))
        compact = compact_model(build_model(inst))
        capfd.readouterr()
        assert solver_cli.solve_mps(compact, 60.0).status == "optimal"
        out, err = capfd.readouterr()
        assert out == ""
        assert "tmpSolver.run()" in err

    def test_threads_share_one_stdout_redirect(self, capfd):
        from nbsopt import solver_cli

        def where(fd):
            st = os.fstat(fd)
            return st.st_dev, st.st_ino

        stdout, stderr = where(1), where(2)
        assert stdout != stderr
        inside: list[bool] = []

        def solve_often():
            for _ in range(200):
                with solver_cli._STDOUT_TO_STDERR:
                    time.sleep(0)
                    inside.append(where(1) == stderr)

        threads = [threading.Thread(target=solve_often) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 8 * 200 and all(inside)
        assert where(1) == stdout
