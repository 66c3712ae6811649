"""Odd JSON values at every key path of an instance file and of a result file.

Each case sets one key path, the root included, to one of `ODD_VALUES`; a
list is entered at its first entry only. The instance reader either loads
the file or raises `InstanceError`, and `nbsopt report` exits 0, 2 or 3 and
never raises.
"""

import copy
import json

import pytest

from nbsopt import GridDims, generate_synthetic
from nbsopt.cli import main
from nbsopt.instance import InstanceError, load_instance, save_instance

ODD_VALUES = [None, True, "x", [], {}, float("nan"), float("inf"), -1, 0, 1e308, 10**400]


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
