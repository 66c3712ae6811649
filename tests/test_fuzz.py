"""Odd JSON values at every key path of an instance file and of a result file,
and odd values in a solver's solution file.

Each JSON case sets one key path, the root included, to one of `ODD_VALUES`;
a list is entered at its first entry only. The instance reader either loads
the file or raises `InstanceError`; an instance that loads gets the same
status and objective from the oracle and from the external backend; and
`nbsopt report` exits 0, 2 or 3 and never raises. Each solution-file case
sets the value of one line the solver writes to one of `ODD_TEXTS`, and
`nbsopt solve` through a solver command that copies the file exits 0 or 3,
never raises, and writes a result file that `nbsopt report` takes back.
"""

import copy
import json
import shlex

import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.cli import main
from nbsopt.instance import InstanceError, load_instance, save_instance
from nbsopt.model import OBJECTIVE_MATCH_TOL, values_close
from nbsopt.solve import OracleCapExceeded, SolveConfig, solve_external, solve_oracle

ODD_VALUES = [None, True, "x", [], {}, float("nan"), float("inf"), -1, 0, 1e308, 10**400]
ODD_TEXTS = ["nan", "inf", "-inf", "1e400", "1" + "0" * 400, "x", ""]


def key_paths(obj, path=()):
    """Every key path of `obj`, the root's included, entering only the first
    entry of each list."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from key_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        yield from key_paths(obj[0], path + (0,))


def cases(raw):
    """`(path, value, text)` for every key path of `raw` and odd value, with
    `text` the JSON of `raw` where that path holds that value."""
    for path in key_paths(raw):
        for value in ODD_VALUES:
            changed = copy.deepcopy(raw)
            if path:
                parent = changed
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            else:
                changed = value
            yield path, value, json.dumps(changed)  # Python's json writes NaN and Infinity


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A 4x4 instance with two NBS types, forbidden and pre-existing cells,
    and its oracle result, which places new cells."""
    work = tmp_path_factory.mktemp("fuzz")
    inst = generate_synthetic(2, GridDims(4, 4), nbs_count=2, measure_count=1,
                              forbidden_fraction=0.3, pre_existing_fraction=0.1)
    instance_path, result_path = work / "instance.json", work / "result.json"
    save_instance(inst, instance_path)
    assert main(["solve", str(instance_path), "--backend", "oracle",
                 "--out", str(result_path)]) == 0
    result = json.loads(result_path.read_text())
    assert any(result["new_cells"].values())
    return work, instance_path, result


def test_the_instance_reader_loads_or_refuses(solved):
    work, instance_path, _ = solved
    raw = json.loads(instance_path.read_text())
    target, loaded = work / "fuzzed_instance.json", 0
    for path, value, text in cases(raw):
        target.write_text(text)
        try:
            load_instance(target)
            loaded += 1
        except InstanceError:
            pass
        except Exception as exc:  # name the case that raised
            pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
    assert loaded  # a name "x" or a budget 0 is a valid instance


def test_both_backends_agree_on_every_instance_that_loads(solved):
    """Only an instance with more decision units than the oracle's cap is
    left out."""
    work, instance_path, _ = solved
    raw = json.loads(instance_path.read_text())
    target, compared = work / "solved_instance.json", 0
    config = SolveConfig(backend="external", time_limit=60.0)
    for path, value, text in cases(raw):
        target.write_text(text)
        try:
            inst = load_instance(target)
        except InstanceError:
            continue
        try:
            oracle = solve_oracle(inst)
        except OracleCapExceeded:
            continue
        external = solve_external(inst, config)
        case = f"{path} = {value!r}: oracle {oracle.status} {oracle.objective!r}, " \
               f"external {external.status} {external.objective!r}"
        assert external.status == oracle.status, case
        if oracle.objective is None:
            assert external.objective is None, case
        else:
            assert values_close(external.objective, oracle.objective, OBJECTIVE_MATCH_TOL), case
        compared += 1
    assert compared >= 20


def test_report_exits_0_2_or_3(solved, capsys):
    work, instance_path, result = solved
    target, out_dir, codes = work / "fuzzed_result.json", work / "report", set()
    for path, value, text in cases(result):
        target.write_text(text)
        try:
            code = main(["report", str(instance_path), str(target), "--out-dir", str(out_dir)])
        except Exception as exc:  # name the case that raised
            pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
        assert code in (0, 2, 3), f"{path} = {value!r}: exit {code}"
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 2, 3}


def test_solve_takes_any_solution_file(solved, capsys):
    """The bundled solver's file for the instance, with the value of its
    status, objective and bound lines and of its first column line set to
    each of `ODD_TEXTS`, and with the first column renamed to one the model
    does not have. A result with a placement reports with exit 0; an error
    result holds none, so `report` exits 3 on it, as `solve` did."""
    work, instance_path, _ = solved
    kept = work / "kept"
    assert main(["solve", str(instance_path), "--backend", "external",
                 "--workdir", str(kept)]) == 0
    lines = (kept / "solution.sol").read_text().splitlines()
    first_column = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    edited = {key: next(k for k, line in enumerate(lines) if line.startswith(f"# {key} "))
              for key in ("status", "objective", "bound")}
    edited["first column"] = first_column
    variants = [(f"{key} = {text!r}", k, lines[k].rsplit(" ", 1)[0] + " " + text)
                for key, k in edited.items() for text in ODD_TEXTS]
    variants.append(("unknown column", first_column,
                     "no_such_column " + lines[first_column].split()[1]))
    fuzzed, result_path = work / "fuzzed.sol", work / "fuzzed_result.json"
    template = f"cp {shlex.quote(str(fuzzed))} {{solution}}"
    codes = set()
    for case, k, line in variants:
        fuzzed.write_text("\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n")
        result_path.unlink(missing_ok=True)
        try:
            code = main(["solve", str(instance_path), "--solver-cmd", template,
                         "--out", str(result_path)])
            assert code in (0, 3), f"{case}: solve exit {code}"
            reported = main(["report", str(instance_path), str(result_path),
                             "--out-dir", str(work / "solution_report")])
        except Exception as exc:  # name the case that raised
            pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
        assert reported == code, f"{case}: solve exit {code}, report exit {reported}"
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 3}
