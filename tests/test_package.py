"""The package exports only what the package itself uses, and still has every
name the benchmark harness traces."""

import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import nbsopt
from nbsopt import GridDims, generate_synthetic
from nbsopt.solve import SOLVER_CMD_ENV

from _helpers import SRC

PACKAGE = Path(nbsopt.__file__).resolve().parent


def test_every_export_is_used_inside_the_package():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(nbsopt.__all__) - used)
    assert unused == [], f"exported but not used in src/nbsopt: {unused}"


def _references(node: ast.AST) -> set[str]:
    """Every name `node` reads, as a bare name or as an attribute."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_public_definition_is_used_inside_the_package():
    """A public top-level function or class, or a public method or property
    of a class, that no other code in src/nbsopt reads serves only its tests
    (or nothing). A method or property is read as an attribute, outside its
    own body."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    methods: list[tuple[str, str, ast.FunctionDef]] = []  # (module, class, method)
    reads: list[tuple[str, int, str]] = []  # (module, line, name) per attribute read
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
                # a definition's own body does not count as a use of it
                used |= _references(node) - {node.name}
            else:
                used |= _references(node)
        methods += [(path.name, cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
        reads += [(path.name, sub.lineno, sub.attr) for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    unused += sorted(
        f"{module}:{cls}.{fn.name}" for module, cls, fn in methods
        if not any(name == fn.name and not (where == module and fn.lineno <= line <= fn.end_lineno)
                   for where, line, name in reads))
    assert unused == [], f"defined but not used in src/nbsopt: {unused}"


def test_only_the_model_and_the_check_evaluate_a_placement():
    """`values_close` and `evaluate_solution` are called only in model.py and
    in solve.py, which holds `check_claim`, the one gate from a claim to a
    result: no command grows its own copy of that check."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("model.py", "solve.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _references(node.func) & {
                "values_close", "evaluate_solution"
            }:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == [], f"a placement is evaluated outside the check: {outside}"


def test_only_the_instance_stacks_the_measures():
    """No module but instance.py calls `effective_delta` or builds an array
    from every measure's `.field` (a comprehension over `measures` that reads
    `.field`): the others read `Instance.fields` and `Instance.deltas`."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "instance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "effective_delta" in _references(node.func):
                outside.append(f"{path.name}:{node.lineno} effective_delta")
            elif (isinstance(node, (ast.ListComp, ast.GeneratorExp))
                  and "field" in _references(node.elt)
                  and any("measures" in _references(g.iter) for g in node.generators)):
                outside.append(f"{path.name}:{node.lineno} stacks .field")
    assert outside == [], f"measures stacked outside the instance: {outside}"


def test_every_dataclass_field_is_read_inside_the_package():
    """A dataclass field that no code in src/nbsopt reads, as an attribute
    of any object, is set for its tests (or for nothing). An attribute that is
    called, such as `b.row_names()`, is a method call and not a read."""
    fields: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _references(d) for d in node.decorator_list
            ):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[item.target.id] = f"{path.name}:{node.name}.{item.target.id}"
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and id(node) not in called):
                read.add(node.attr)
    unread = sorted(where for name, where in fields.items() if name not in read)
    assert unread == [], f"dataclass fields never read in src/nbsopt: {unread}"


def _called_name(call: ast.Call) -> str | None:
    """The name a call calls: `f` in `f(...)` and in `obj.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_optional_parameter_is_passed_inside_the_package():
    """A parameter with a default that no call in src/nbsopt passes, by
    position or by keyword, is there for its tests (or for nothing). A call
    of a class passes its `__init__`'s parameters, and a call that unpacks
    `*args` or `**kwargs` may pass any of them. The `argv` of the entry points
    is exempt: only their command lines pass it."""
    optional: list[tuple[str, str, str, int | None]] = []  # where, called as, name, position
    calls: list[ast.Call] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.append(node)
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = methods.get(id(node))
            called_as = owner if node.name == "__init__" else node.name
            params = node.args.posonlyargs + node.args.args
            first = len(params) - len(node.args.defaults)
            static = any("staticmethod" in _references(d) for d in node.decorator_list)
            shift = 1 if owner and not static else 0  # `self` or `cls`
            where = f"{path.name}:{node.name}"
            optional += [(where, called_as, arg.arg, k - shift)
                         for k, arg in enumerate(params[first:], first)]
            optional += [(where, called_as, arg.arg, None)
                         for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                         if default is not None]

    def passes(call: ast.Call, position: int | None, name: str) -> bool:
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, name) for k in call.keywords)
                or (position is not None and len(call.args) > position))

    unpassed = {
        f"{where}({name})" for where, called_as, name, position in optional
        if not any(_called_name(c) == called_as and passes(c, position, name) for c in calls)
    }
    unpassed = sorted(unpassed - {"cli.py:main(argv)", "solver_cli.py:main(argv)"})
    assert unpassed == [], f"optional parameters no call in src/nbsopt passes: {unpassed}"


HIGHS_BINDING = "scipy.optimize._highspy._core"


def _imported_modules(tree: ast.AST) -> list[str]:
    """Every module an import statement in `tree` names, with each name a
    `from` import takes from its module, as `module.name`."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_scipy_optimize():
    """The HiGHS binding is loaded from its extension file, so no import
    statement names `scipy.optimize` or anything in it: its package init
    imports most of scipy."""
    imported = [f"{path.name}: {name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert imported == [], f"scipy.optimize imported: {imported}"


def test_no_module_imports_scipy_sparse_or_ndimage():
    """The package runs on numpy alone, apart from the HiGHS binding: no
    import statement names `scipy.sparse` or `scipy.ndimage`, whose imports
    cost a process more than the rest of the package."""
    imported = [f"{path.name}: {name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                for banned in ("scipy.sparse", "scipy.ndimage")
                if name == banned or name.startswith(banned + ".")]
    assert imported == [], f"scipy subpackages imported: {imported}"


def test_the_binding_is_named_only_in_highs_binding():
    """Outside docstrings, the binding's module name (or any name in
    `scipy.optimize`) is written only in `mps.highs_binding`, so every use of
    the binding goes through that loader."""
    found: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and ("scipy.optimize" in node.value or "_highspy" in node.value)):
                owners = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}:{owners[-1] if owners else '<module>'}")
    assert set(found) == {"mps.py:highs_binding"}, found


def _run_python(code: str) -> list[str]:
    """The lines a fresh interpreter prints running `code` with the package
    under test importable and no solver command set."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop(SOLVER_CMD_ENV, None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


LOADED = f"print('scipy.optimize' in sys.modules, {HIGHS_BINDING!r} in sys.modules)\n"
DESK_SOLVE = (
    "from nbsopt.solve import SolveConfig, solve_external\n"
    "from nbsopt.suite import desk_suite\n"
    "_, inst = desk_suite(1)[0]\n"
    "result = solve_external(inst, SolveConfig(backend='external', time_limit=60.0))\n"
    "print(result.status)\n"
)


def test_a_solve_loads_the_binding_but_not_scipy_optimize(tmp_path):
    """The in-process solve and the solver program each load the binding,
    and neither runs `scipy.optimize`'s package init."""
    assert _run_python(f"import sys\n{DESK_SOLVE}{LOADED}") == ["optimal", "False", "True"]

    mps = tmp_path / "m.mps"
    mps.write_text("NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x obj -1.0\n x c1 1.0\n"
                   "RHS\n rhs c1 4.0\nENDATA\n")
    main = f"solver_cli.main([{str(mps)!r}, {str(tmp_path / 'm.sol')!r}, '10'])"
    assert _run_python(f"import sys\nfrom nbsopt import solver_cli\n{main}\n{LOADED}") \
        == ["False", "True"]
    assert "# status optimal" in (tmp_path / "m.sol").read_text().splitlines()


def test_no_workload_loads_scipy_sparse_or_ndimage(tmp_path):
    """Neither importing the package, nor a solve, nor `nbsopt build`, nor
    the solver program on an MPS file loads `scipy.sparse`, `scipy.ndimage`
    or `numpy.ma` (which `np.unique` imports when asked for the values
    alone)."""
    unloaded = ("print('scipy.sparse' in sys.modules, 'scipy.ndimage' in sys.modules,"
                " 'numpy.ma' in sys.modules)\n")
    mps, sol = tmp_path / "m.mps", tmp_path / "m.sol"
    code = (
        f"import sys\nimport nbsopt\n{unloaded}{DESK_SOLVE}{unloaded}"
        "import contextlib\nfrom nbsopt import cli\nfrom nbsopt.instance import save_instance\n"
        f"save_instance(inst, {str(tmp_path / 'i.json')!r})\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        f"    code = cli.main(['build', {str(tmp_path / 'i.json')!r}, '--out', {str(mps)!r}])\n"
        "print(code)\n"
        f"{unloaded}"
        "from nbsopt import solver_cli\n"
        f"print(solver_cli.main([{str(mps)!r}, {str(sol)!r}, '10']))\n"
        f"{unloaded}"
    )
    assert _run_python(code) == ["False", "False", "False", "optimal", "False", "False", "False",
                                 "0", "False", "False", "False", "0", "False", "False", "False"]
    assert "# status optimal" in sol.read_text().splitlines()


def test_scipy_optimize_works_after_a_solve():
    """`milp` solves, on the binding nbsopt loaded, after an nbsopt solve:
    max x + y subject to x + 2y <= 3, 0 <= x, y <= 5, both integer."""
    code = (
        f"import sys\n{DESK_SOLVE}"
        "import numpy as np\n"
        "from scipy.optimize import Bounds, LinearConstraint, milp\n"
        "res = milp([-1.0, -1.0], integrality=[1, 1], bounds=Bounds(0, 5),\n"
        "           constraints=LinearConstraint([[1.0, 2.0]], -np.inf, 3.0))\n"
        "print(res.status, res.fun)\n"
    )
    assert _run_python(code) == ["optimal", "0", "-3.0"]


def test_a_solve_works_after_scipy_optimize():
    """With `scipy.optimize` imported first, `highs_binding` returns the
    binding it loaded rather than loading the extension file again."""
    code = (
        f"import sys\nimport scipy.optimize\n{LOADED}"
        "import importlib.util\n"
        "def load(*args, **kwargs):\n"
        "    raise AssertionError('the binding was loaded again')\n"
        "importlib.util.spec_from_file_location = load\n"
        "from nbsopt.mps import highs_binding\n"
        "print(highs_binding() is scipy.optimize._highspy._core)\n"
        f"{DESK_SOLVE}"
    )
    assert _run_python(code) == ["True", "True", "True", "optimal"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_names_the_benchmark_traces_exist(tmp_path, monkeypatch):
    """Every name perfbench wraps with `tracer.install`, or imports from
    nbsopt in its traced solver, is still in the package, so a rename fails
    here rather than in a traced benchmark run. The trace of
    `solve.parse_solution_file` reads the solver's spans from beside the file
    its first positional argument names, so a solve through a solver command
    must pass the solution path there."""
    installed: list[tuple[str, str]] = []
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "install"
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id != "subprocess"
        ):
            installed.append((f"nbsopt.{node.args[0].id}", node.args[1].value))
    imported: list[tuple[str, str]] = []
    solver = ast.parse((PERFBENCH / "traced_solver.py").read_text(encoding="utf-8"))
    for node in ast.walk(solver):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nbsopt":
            imported.extend((node.module, alias.name) for alias in node.names)
    assert installed and imported, "no names found: the perfbench sources changed shape"
    missing = [
        f"{module}.{name}"
        for module, name in installed + imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == [], f"perfbench uses names nbsopt no longer has: {missing}"

    solve = importlib.import_module("nbsopt.solve")
    seen: list[tuple] = []
    real = solve.parse_solution_file

    def spy(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solve, "parse_solution_file", spy)
    write = "import sys; open(sys.argv[1], 'w').write('# status infeasible')"
    template = f"{shlex.quote(sys.executable)} -c {shlex.quote(write)} {{solution}}"
    inst = generate_synthetic(0, GridDims(2, 2), nbs_count=1, measure_count=1,
                              forbidden_fraction=0.5, pre_existing_fraction=0.0)
    config = solve.SolveConfig(backend="external", solver_cmd=template, workdir=tmp_path)
    assert solve.solve_external(inst, config).status == "infeasible"
    assert [Path(args[0]) for args in seen] == [tmp_path / "solution.sol"]
