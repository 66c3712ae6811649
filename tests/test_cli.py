import dataclasses
import json
import pathlib
import shlex
import sys

import pytest

from nbsopt.cli import main
from nbsopt.instance import save_instance
from nbsopt.suite import desk_suite

from _helpers import SRC, spy_on_highs, strict_json


def run(argv):
    return main(argv)


def rewriting_solver(tmp_path, edits):
    """A solver command template that runs the bundled solver, and then sets
    each `# key value` line of its solution file named in `edits` to the
    value given, or drops the line where the value is None."""
    script = tmp_path / "rewriting_solver.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from nbsopt import solver_cli\n"
        "solver_cli.main(sys.argv[1:])\n"
        f"edits = {edits!r}\n"
        "lines = [line for line in open(sys.argv[2]).read().splitlines()\n"
        "         if line.split()[:2] not in [['#', key] for key in edits]]\n"
        "lines[1:1] = [f'# {key} {value}' for key, value in edits.items() if value]\n"
        "open(sys.argv[2], 'w').write('\\n'.join(lines) + '\\n')\n"
    )
    return (f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
            " {model} {solution} {timelimit} --gap {gap}")


@pytest.fixture
def tiny_instance_path(tmp_path):
    path = tmp_path / "inst.json"
    code = run([
        "gen", "--seed", "1", "--size", "xs", "--out", str(path),
        "--nbs", "1", "--measures", "1",
        "--forbidden-frac", "0.998", "--pre-frac", "0.001",
    ])
    assert code == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            assert run(["gen", "--seed", "9", "--size", "xs", "--out", str(path),
                        "--nbs", "2", "--measures", "2"]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_size_m_is_200_by_200(self, tmp_path):
        path = tmp_path / "m.json"
        assert run(["gen", "--seed", "0", "--size", "m", "--out", str(path),
                    "--nbs", "1", "--measures", "1"]) == 0
        raw = json.loads(path.read_text())
        assert raw["dims"]["width"] == 200 and raw["dims"]["height"] == 200

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--seed", "1", "--size", "xs", "--out",
                 str(tmp_path / "x.json"), "--bogus"])
        assert exc.value.code == 2


class TestValidate:
    def test_valid_instance(self, tiny_instance_path, capsys):
        assert run(["validate", str(tiny_instance_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_corrupt_file_exits_2_naming_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": {"width": 1}}')
        assert run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error code=instance.schema" in err
        assert "dims" in err

    def test_missing_file_exits_4(self, tmp_path):
        assert run(["validate", str(tmp_path / "nope.json")]) == 4

    def test_an_integer_past_the_digit_limit_is_a_schema_error(self, tiny_instance_path,
                                                               tmp_path, capsys):
        # Python converts no integer longer than 4,300 digits from text
        text = tiny_instance_path.read_text()
        budget = json.dumps(json.loads(text)["budget"])
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(f'"budget": {budget}', '"budget": 1' + "0" * 5000))
        assert run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith('error code=instance.schema message=": not valid JSON: ')
        assert len(err) < 400

    def test_a_cell_past_a_float_is_named_by_its_range(self, tiny_instance_path, tmp_path,
                                                        capsys):
        raw = json.loads(tiny_instance_path.read_text())
        raw["forbidden"]["GW"].append([10**400, 0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=instance.validation message=")
        assert "forbidden[GW]: cell (an integer beyond a float's range " \
               "(above 1.798e+308 in magnitude), 0) outside the grid" in err
        assert len(err) < 200

    @pytest.mark.parametrize("key, value, code", [
        ("cost", 1e16, 2), ("cost", 1e308, 2), ("field", 1e308, 2), ("cost", 9.9e14, 0),
    ])
    def test_a_number_highs_refuses_exits_2_naming_the_key(self, key, value, code, tmp_path,
                                                          capsys):
        # HiGHS refuses a model with these numbers, which the oracle would
        # solve; with a cost of 9.9e14 both backends answer alike
        seed, inst = desk_suite(1, start_seed=1)[0]
        assert seed == 1
        path = tmp_path / "desk.json"
        save_instance(inst, path)
        raw = json.loads(path.read_text())
        if key == "cost":
            raw["nbs"][0]["cost"] = value
            named = f"NBS {raw['nbs'][0]['id']!r}: cost"
        else:
            raw["measures"][0]["field"][0][0] = value
            named = f"measure {raw['measures'][0]['id']!r}: field"
        path.write_text(json.dumps(raw))
        assert run(["validate", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert "error code=instance.validation" in err
            assert f"{named} must be below 1e15 in magnitude, got {value!r}" in err

    def test_infinite_nbs_cost_exits_2_naming_the_nbs(self, tiny_instance_path, tmp_path,
                                                      capsys):
        raw = json.loads(tiny_instance_path.read_text())
        raw["nbs"][0]["cost"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))  # Python's json writes Infinity
        assert run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error code=instance.validation" in err
        assert f"NBS {raw['nbs'][0]['id']!r}: cost must be finite and positive" in err


class TestKernelsCommand:
    def test_lists_all_default_kernels(self, capsys):
        assert run(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "11x11" in out  # urban park fairness kernel
        assert out.count("Fairness") == 4


class TestSolveAndReport:
    def test_oracle_end_to_end(self, tiny_instance_path, tmp_path, capsys):
        result_path = tmp_path / "result.json"
        code = run(["solve", str(tiny_instance_path), "--backend", "oracle",
                    "--out", str(result_path)])
        assert code == 0
        assert "status=optimal" in capsys.readouterr().out
        raw = json.loads(result_path.read_text())
        assert raw["status"] == "optimal"
        assert raw["new_cells"] is not None

        out_dir = tmp_path / "rep"
        code = run(["report", str(tiny_instance_path), str(result_path),
                    "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "placement_GW.pgm").exists()
        assert (out_dir / "heatmap_scales.json").exists()

    @pytest.mark.parametrize("case, code", [
        ("not_json", "result.schema"),
        ("not_an_object", "result.schema"),
        ("unknown_nbs", "result.schema"),
        ("outside_grid", "result.schema"),
        ("negative_index", "result.schema"),
        ("not_an_integer", "result.schema"),
        ("wall_time_not_a_number", "result.schema"),
        ("wall_time_a_bool", "result.schema"),
        ("objective_a_string", "result.schema"),
        ("bound_a_list", "result.schema"),
        ("status_a_number", "result.schema"),
        ("backend_a_list", "result.schema"),
        ("message_an_object", "result.schema"),
        ("metadata_an_empty_list", "result.schema"),
        ("objective_nan", "result.schema"),
        ("bound_infinite", "result.schema"),
        ("wall_time_infinite", "result.schema"),
        ("objective_not_the_placements", "result.mismatch"),
        ("bound_above_the_placements", "result.mismatch"),
        ("infeasible_with_cells", "result.schema"),
        ("error_with_cells", "result.schema"),
        ("forbidden_cell", "placement.infeasible"),
        ("bound_past_a_float", "result.schema"),
        ("cell_past_a_float", "result.schema"),
    ])
    def test_bad_result_file_exits_2(self, case, code, tiny_instance_path, tmp_path, capsys):
        forbidden = json.loads(tiny_instance_path.read_text())["forbidden"]["GW"][0]
        fields = {
            "unknown_nbs": {"new_cells": {"XX": [[0, 0]]}},
            "outside_grid": {"new_cells": {"GW": [[50, 0]]}},
            "negative_index": {"new_cells": {"GW": [[-1, 0]]}},
            "not_an_integer": {"new_cells": {"GW": [[1.5, 0]]}},
            "wall_time_not_a_number": {"new_cells": {"GW": []}, "metadata": {"wall_time": "1s"}},
            "wall_time_a_bool": {"new_cells": {"GW": []}, "metadata": {"wall_time": True}},
            "objective_a_string": {"new_cells": {"GW": []}, "objective": "abc"},
            "bound_a_list": {"new_cells": {"GW": []}, "bound": [1]},
            "status_a_number": {"new_cells": {"GW": []}, "status": 7},
            "backend_a_list": {"new_cells": {"GW": []}, "metadata": {"backend": ["x"]}},
            "message_an_object": {"new_cells": {"GW": []}, "metadata": {"message": {"a": 1}}},
            "metadata_an_empty_list": {"new_cells": {"GW": []}, "metadata": []},
            "objective_nan": {"new_cells": {"GW": []}, "objective": float("nan")},
            "bound_infinite": {"new_cells": {"GW": []}, "bound": float("inf")},
            "wall_time_infinite": {"new_cells": {"GW": []},
                                   "metadata": {"wall_time": float("inf")}},
            # do-nothing's objective is below 1
            "objective_not_the_placements": {"new_cells": {"GW": []}, "objective": 5.0},
            # a lower bound above the objective the placement re-evaluates to
            "bound_above_the_placements": {"new_cells": {"GW": []}, "bound": 5.0},
            # only optimal and feasible-timeout results are written with cells
            "infeasible_with_cells": {"new_cells": {"GW": []}, "status": "infeasible"},
            "error_with_cells": {"new_cells": {"GW": []}, "status": "error"},
            "forbidden_cell": {"new_cells": {"GW": [forbidden]}},
            "bound_past_a_float": {"new_cells": {"GW": []}, "bound": 10**400},
            "cell_past_a_float": {"new_cells": {"GW": [[10**400, 0]]}},
        }
        raw = {"status": "optimal", **fields[case]} if case in fields else []
        result_path = tmp_path / "result.json"
        result_path.write_text("not json" if case == "not_json" else json.dumps(raw))
        code_seen = run(["report", str(tiny_instance_path), str(result_path),
                         "--out-dir", str(tmp_path / "rep")])
        err = capsys.readouterr().err.splitlines()
        assert code_seen == 2
        assert len(err) == 1 and err[0].startswith(f"error code={code} message=")
        if case == "cell_past_a_float":  # names the range, not the digits
            assert "cell [an integer beyond a float's range (above 1.798e+308 in magnitude), 0]" \
                   " outside the" in err[0]
            assert len(err[0]) < 200

    def test_result_json_deterministic_modulo_metadata(self, tiny_instance_path, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert run(["solve", str(tiny_instance_path), "--backend", "oracle",
                        "--out", str(p)]) == 0
        r1, r2 = (json.loads(p.read_text()) for p in paths)
        r1.pop("metadata"), r2.pop("metadata")
        assert r1 == r2

    def test_oracle_cap_exceeded_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        assert run(["gen", "--seed", "2", "--size", "xs", "--out", str(inst),
                    "--nbs", "2", "--measures", "1", "--forbidden-frac", "0.5"]) == 0
        assert run(["solve", str(inst), "--backend", "oracle"]) == 3
        assert "solve.cap" in capsys.readouterr().err

    def test_external_backend_with_workdir(self, tiny_instance_path, tmp_path):
        code = run(["solve", str(tiny_instance_path), "--backend", "external",
                    "--timelimit", "60", "--workdir", str(tmp_path / "w"),
                    "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert (tmp_path / "w" / "model.mps").exists()
        assert (tmp_path / "w" / "solution.sol").exists()
        meta = json.loads((tmp_path / "r.json").read_text())["metadata"]
        assert "formulation" not in meta

    def test_a_result_naming_its_formulation_still_loads(self, tiny_instance_path, tmp_path):
        # result files from before every solve used the compact model carry
        # `metadata.formulation`; `report` reads past it
        result_path = tmp_path / "result.json"
        assert run(["solve", str(tiny_instance_path), "--backend", "external",
                    "--timelimit", "60", "--out", str(result_path)]) == 0
        raw = json.loads(result_path.read_text())
        raw["metadata"]["formulation"] = "paper"
        result_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "rep"
        assert run(["report", str(tiny_instance_path), str(result_path),
                    "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["metadata"]["status"] == "optimal"
        assert "formulation" not in report["metadata"]

    def test_a_failed_certificate_exits_3(self, tiny_instance_path, tmp_path, monkeypatch,
                                          capsys):
        # the compact model solves the paper model exactly, so an answer that
        # fails the check is a defect, not a second solve; here the objective
        # HiGHS reports is planted 1e-3 off the placement's
        from nbsopt import solver_cli

        calls = spy_on_highs(monkeypatch)
        real = solver_cli.solve_mps

        def planted(*args):
            answer = real(*args)
            return dataclasses.replace(answer, objective=answer.objective + 1e-3)

        monkeypatch.setattr(solver_cli, "solve_mps", planted)
        out = tmp_path / "r.json"
        assert run(["solve", str(tiny_instance_path), "--backend", "external",
                    "--out", str(out)]) == 3
        assert len(calls) == 1
        result = json.loads(out.read_text())
        assert result["status"] == "error"
        assert "objective mismatch" in result["metadata"]["message"]
        assert "solve.error" in capsys.readouterr().err

    def test_an_oracle_optimum_the_checker_rejects_exits_3(self, tiny_instance_path, tmp_path,
                                                          monkeypatch, capsys):
        # a defect of the solve, not of the user's input: the error result is
        # written, and the exit is `solve.error`, not `placement.infeasible`
        from nbsopt import model

        monkeypatch.setattr(model, "check_placement",
                            lambda *args: [model.Violation("budget", "planted")])
        out = tmp_path / "r.json"
        assert run(["solve", str(tiny_instance_path), "--backend", "oracle",
                    "--out", str(out)]) == 3
        result = json.loads(out.read_text())
        assert (result["status"], result["metadata"]["backend"]) == ("error", "oracle")
        assert "error code=solve.error" in capsys.readouterr().err

    @pytest.mark.parametrize("bound, message", [
        ("5.0", "bound mismatch: solver 5.0 exceeds the re-evaluated "),
        ("nan", "solver reported a non-finite bound nan"),
    ])
    def test_a_claim_report_refuses_fails_the_solve(self, bound, message, tiny_instance_path,
                                                    tmp_path, capsys):
        # a lower bound above the placement's objective, or one that is no
        # number, would make a result file that `report` refuses
        out = tmp_path / "r.json"
        template = rewriting_solver(tmp_path, {"bound": bound})
        assert run(["solve", str(tiny_instance_path), "--solver-cmd", template,
                    "--out", str(out)]) == 3
        assert "error code=solve.error" in capsys.readouterr().err
        result = strict_json(out.read_text())
        assert (result["status"], result["bound"]) == ("error", None)
        assert result["metadata"]["message"].startswith(message)

    def test_a_timeout_without_a_bound_claims_no_gap(self, tiny_instance_path, tmp_path):
        out = tmp_path / "r.json"
        template = rewriting_solver(tmp_path, {"status": "feasible-timeout", "bound": None})
        assert run(["solve", str(tiny_instance_path), "--solver-cmd", template,
                    "--out", str(out)]) == 0
        result = strict_json(out.read_text())
        assert (result["status"], result["bound"]) == ("feasible-timeout", None)
        assert result["objective"] == result["objective_terms"]["total"]
        out_dir = tmp_path / "rep"
        assert run(["report", str(tiny_instance_path), str(out),
                    "--out-dir", str(out_dir)]) == 0
        metadata = strict_json((out_dir / "report.json").read_text())["metadata"]
        assert (metadata["status"], metadata["bound"]) == ("feasible-timeout", None)

    def test_gap_reaches_the_solver(self, tiny_instance_path, tmp_path):
        argv_file = tmp_path / "argv.json"
        fake = tmp_path / "fake_solver.py"
        fake.write_text(
            "import json, sys\n"
            f"open({str(argv_file)!r}, 'w').write(json.dumps(sys.argv[1:]))\n"
            "open(sys.argv[2], 'w').write('# status infeasible\\n')\n"
        )
        template = (f"{shlex.quote(sys.executable)} {shlex.quote(str(fake))}"
                    " {model} {solution} {timelimit} --gap {gap}")
        assert run(["solve", str(tiny_instance_path), "--backend", "external",
                    "--solver-cmd", template, "--gap", "0.25"]) == 0
        argv = json.loads(argv_file.read_text())
        assert argv[-2:] == ["--gap", "0.25"]

    def test_gap_and_timelimit_reach_in_process_highs(self, tiny_instance_path,
                                                      monkeypatch):
        calls = spy_on_highs(monkeypatch)
        assert run(["solve", str(tiny_instance_path), "--backend", "external",
                    "--timelimit", "7.5", "--gap", "0.25"]) == 0
        [call] = calls
        # the tiny instance guards no measure, so feasibility jump is off
        assert call["options"] == {"log_to_console": False, "presolve": "on",
                                   "time_limit": 7.5, "mip_rel_gap": 0.25,
                                   "mip_heuristic_run_feasibility_jump": False}


class TestBuild:
    def test_writes_mps(self, tiny_instance_path, tmp_path, capsys):
        out = tmp_path / "model.mps"
        assert run(["build", str(tiny_instance_path), "--out", str(out)]) == 0
        assert out.exists()
        head = out.read_text().splitlines()[0]
        assert head.startswith("NAME")
        assert "columns" in capsys.readouterr().out

    def test_column_count_mismatch_is_an_error(self, tiny_instance_path, tmp_path,
                                               monkeypatch, capsys):
        from nbsopt import cli

        real = cli.expected_variable_count
        monkeypatch.setattr(cli, "expected_variable_count", lambda inst: real(inst) + 1)
        out = tmp_path / "model.mps"
        assert run(["build", str(tiny_instance_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solve.error" in err
        n = real(cli.load_instance(str(tiny_instance_path)))
        assert f"model has {n} columns, the closed form gives {n + 1}" in err
        assert not out.exists()


class TestBench:
    def test_small_oracle_bench(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = run(["bench", "--seeds", "2", "--backend", "oracle",
                    "--out-dir", str(out_dir)])
        assert code == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["count"] == 2
        assert stats["pct_optimal"] == 100.0
        seed_dirs = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
        assert len(seed_dirs) == 2
        for d in seed_dirs:
            assert (out_dir / d / "instance.json").exists()
            assert (out_dir / d / "report.json").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["bench", "--seeds", "2", "--backend", "oracle",
                    "--out-dir", str(serial)]) == 0
        assert run(["bench", "--seeds", "2", "--backend", "oracle", "--jobs", "2",
                    "--out-dir", str(parallel)]) == 0
        s = json.loads((serial / "stats.json").read_text())
        p = json.loads((parallel / "stats.json").read_text())
        s.pop("mean_wall_time"), p.pop("mean_wall_time")
        assert s == p


    def test_an_oracle_seed_that_fails_its_check_is_recorded(self, tmp_path, monkeypatch):
        # the first seed's optimum is planted to fail the checker
        from nbsopt import model

        real, calls = model.check_placement, []

        def fail_first(*args):
            calls.append(args)
            return [model.Violation("budget", "planted")] if len(calls) == 1 else real(*args)

        monkeypatch.setattr(model, "check_placement", fail_first)
        out_dir = tmp_path / "bench"
        assert run(["bench", "--seeds", "3", "--backend", "oracle",
                    "--out-dir", str(out_dir)]) == 3
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["count"] == 2 and stats["pct_optimal"] == 100.0
        assert stats["failed"] == [{"seed": desk_suite(1)[0][0], "status": "error",
                                    "message": "solver placement violates: budget"}]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_seeds_are_recorded(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setenv("NBSOPT_SOLVER_CMD", "false {model} {solution} {timelimit}")
        out_dir = tmp_path / "bench"
        code = run(["bench", "--seeds", "2", "--backend", "external", "--jobs", jobs,
                    "--out-dir", str(out_dir)])
        assert code == 3
        captured = capsys.readouterr()
        assert "bench.failed" in captured.err
        stats = json.loads((out_dir / "stats.json").read_text())
        assert json.loads(captured.out) == stats
        assert [f["status"] for f in stats["failed"]] == ["error", "error"]
        assert len({f["seed"] for f in stats["failed"]}) == 2
        assert all("exited with 1" in f["message"] for f in stats["failed"])


    def test_the_config_solver_cmd_is_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("NBSOPT_SOLVER_CMD", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver_cmd": "false {model} {solution} {timelimit}",
                                   "gap": 0.5}))
        assert run(["bench", "--seeds", "1", "--backend", "external",
                    "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error code=bench.failed message=")
        [failed] = json.loads(captured.out)["failed"]
        assert (failed["seed"], failed["status"]) == (desk_suite(1)[0][0], "error")
        assert "exited with 1" in failed["message"]

    def test_a_config_gives_highs_the_options_solve_gives(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "external", "timelimit": 7.5, "gap": 0.25}))
        seed, inst = desk_suite(1)[0]
        path = tmp_path / f"seed_{seed}.json"
        save_instance(inst, path)
        calls = spy_on_highs(monkeypatch)
        assert run(["solve", str(path), "--config", str(cfg)]) == 0
        assert run(["bench", "--seeds", "1", "--config", str(cfg)]) == 0
        solve_call, bench_call = calls
        for call in (solve_call, bench_call):
            assert (call["options"]["time_limit"], call["options"]["mip_rel_gap"]) == (7.5, 0.25)
        assert bench_call["options"] == solve_call["options"]

    def test_stats_cover_the_seeds_that_succeeded(self, tmp_path, monkeypatch):
        import nbsopt

        flag = tmp_path / "failed-once"
        fake = tmp_path / "fail_first.py"
        fake.write_text(
            "import pathlib, sys\n"
            f"flag = pathlib.Path({str(flag)!r})\n"
            "if not flag.exists():\n"
            "    flag.touch()\n"
            "    sys.exit(1)\n"
            f"sys.path.insert(0, {str(pathlib.Path(nbsopt.__file__).parents[1])!r})\n"
            "from nbsopt import solver_cli\n"
            "sys.exit(solver_cli.main(sys.argv[1:]))\n"
        )
        monkeypatch.setenv("NBSOPT_SOLVER_CMD", f"{shlex.quote(sys.executable)} "
                           f"{shlex.quote(str(fake))} {{model}} {{solution}} {{timelimit}}")
        out_dir = tmp_path / "bench"
        assert run(["bench", "--seeds", "2", "--backend", "external",
                    "--out-dir", str(out_dir)]) == 3
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["count"] == 1 and stats["pct_optimal"] == 100.0
        assert [f["status"] for f in stats["failed"]] == ["error"]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"forbidden_frac": 0.998, "nbs": 1, "measures": 1,
                                   "pre_frac": 0.001}))
        out_cfg = tmp_path / "a.json"
        assert run(["gen", "--seed", "1", "--size", "xs", "--out", str(out_cfg),
                    "--config", str(cfg)]) == 0
        out_flags = tmp_path / "b.json"
        assert run(["gen", "--seed", "1", "--size", "xs", "--out", str(out_flags),
                    "--nbs", "1", "--measures", "1",
                    "--forbidden-frac", "0.998", "--pre-frac", "0.001"]) == 0
        assert out_cfg.read_bytes() == out_flags.read_bytes()

        # an explicit flag overrides the config value
        out_override = tmp_path / "c.json"
        assert run(["gen", "--seed", "1", "--size", "xs", "--out", str(out_override),
                    "--config", str(cfg), "--nbs", "2"]) == 0
        raw = json.loads(out_override.read_text())
        assert len(raw["nbs"]) == 2

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert run(["kernels", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error code=config.schema message=")

    def test_config_not_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run(["kernels", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error code=config.schema message=")


class TestConfigValueTypes:
    """A config value has its flag's type: a boolean is not a number, a count
    is an integer and a text option is a string. Any other value exits 2 as
    `config.schema`, naming the key, before any solve."""

    @pytest.mark.parametrize("argv, config", [
        (["solve", "{inst}"], {"timelimit": True}),
        (["solve", "{inst}"], {"gap": "0"}),
        (["solve", "{inst}"], {"solver_cmd": 5}),
        (["solve", "{inst}", "--backend", "oracle"], {"cap": 16.9}),
        (["bench"], {"seeds": 1.9}),
        (["bench", "--seeds", "1"], {"jobs": True}),
        (["bench", "--seeds", "1"], {"backend": ["oracle"]}),
        (["gen", "--seed", "1", "--size", "xs", "--out", "{out}"], {"nbs": "2"}),
        (["solve", "{inst}"], {"timelimit": 10**400}),
        (["gen", "--seed", "1", "--size", "xs", "--out", "{out}"], {"resolution": 10**400}),
    ], ids=["timelimit-bool", "gap-text", "solver-cmd-number", "cap-fraction",
            "seeds-fraction", "jobs-bool", "backend-list", "nbs-text",
            "timelimit-past-a-float", "resolution-past-a-float"])
    def test_exits_2(self, argv, config, tiny_instance_path, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        paths = {"inst": tiny_instance_path, "out": tmp_path / "out.json"}
        calls = spy_on_highs(monkeypatch)
        code = run([arg.format(**paths) for arg in argv] + ["--config", str(cfg)])
        [key] = config
        assert (code, calls) == (2, [])
        assert not paths["out"].exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error code=config.schema message=\"config.{key}: ")
        if config[key] == 10**400:  # names the range, not the digits
            assert f"config.{key}: expected a number, got an integer beyond a float's range " \
                   "(above 1.798e+308 in magnitude)" in err
            assert len(err) < 200

    def test_an_integer_is_a_number(self, tiny_instance_path, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"timelimit": 7, "gap": 0}))
        calls = spy_on_highs(monkeypatch)
        assert run(["solve", str(tiny_instance_path), "--config", str(cfg)]) == 0
        assert (calls[0]["options"]["time_limit"], calls[0]["options"]["mip_rel_gap"]) == (7.0, 0.0)


GEN = ["gen", "--seed", "1", "--size", "xs", "--out", "{out}"]


class TestInvalidOptionValues:
    """An option value out of its range, from a flag or a config key, exits 2
    with one error line, and no solver is called."""

    @pytest.mark.parametrize("argv", [
        GEN + ["--nbs", "9"],
        GEN + ["--measures", "0"],
        GEN + ["--forbidden-frac", "2"],
        ["cluster", "{parks}", "--out", "{out}", "--min", "10", "--max", "5"],
        ["solve", "{inst}", "--timelimit", "-1"],
        ["solve", "{inst}", "--timelimit", "nan"],
        ["solve", "{inst}", "--gap", "-0.5"],
        ["solve", "{inst}", "--config", "{config}"],
        ["bench", "--seeds", "1", "--timelimit", "-1"],
        ["cluster", "{parks}", "--out", "{out}", "--min", "0"],
        ["cluster", "{parks}", "--out", "{out}", "--min", "-5", "--max", "-2"],
        ["solve", "{inst}", "--backend", "oracle", "--cap", "-1"],
        ["bench", "--seeds", "1", "--cap", "-1"],
        ["bench", "--seeds", "0"],
        ["bench", "--seeds", "1", "--jobs", "-3"],
    ], ids=["gen-nbs", "gen-measures", "gen-forbidden-frac", "cluster-min-max",
            "solve-timelimit-negative", "solve-timelimit-nan", "solve-gap-negative",
            "solve-config-timelimit", "bench-timelimit", "cluster-min-zero",
            "cluster-sizes-negative", "solve-oracle-cap-negative", "bench-cap-negative",
            "bench-seeds-zero", "bench-jobs-negative"])
    def test_exits_2(self, argv, tiny_instance_path, tmp_path, monkeypatch, capsys):
        paths = {"inst": tiny_instance_path, "out": tmp_path / "out.json",
                 "parks": tmp_path / "parks.json", "config": tmp_path / "cfg.json"}
        if "{parks}" in argv:
            assert run(["gen", "--seed", "1", "--size", "xs", "--out", str(paths["parks"]),
                        "--nbs", "4", "--measures", "1"]) == 0
        paths["config"].write_text(json.dumps({"timelimit": -1}))
        capsys.readouterr()
        calls = spy_on_highs(monkeypatch)
        code = run([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert (code, calls) == (2, [])
        assert err.startswith("error code=usage.invalid message=")
        assert err.count("\n") == 1

    def test_an_infinite_time_limit_is_allowed(self, tiny_instance_path):
        assert run(["solve", str(tiny_instance_path), "--timelimit", "inf"]) == 0
