"""The package exports only what the package itself uses, and still has every
name the benchmark harness traces."""

import ast
import importlib
import shlex
import sys
from pathlib import Path

import nbsopt
from nbsopt import GridDims, generate_synthetic

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
    """A public top-level function or class that no other code in src/nbsopt
    reads serves only its tests (or nothing)."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
                # a definition's own body does not count as a use of it
                used |= _references(node) - {node.name}
            else:
                used |= _references(node)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert unused == [], f"defined but not used in src/nbsopt: {unused}"


HIGHS_BINDING = "scipy.optimize._highspy._core"


def test_scipy_optimize_is_reached_only_through_the_highs_binding():
    """Every solve goes through one HiGHS adapter on scipy's bundled binding,
    so no module imports anything else of `scipy.optimize` (`milp`, `Bounds`,
    `LinearConstraint`, or the package itself)."""
    imported: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.extend(f"{path.name}: {alias.name}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.extend(f"{path.name}: {node.module}.{alias.name}"
                                for alias in node.names)
    other = [name for name in imported
             if name.split(": ")[1].startswith("scipy.optimize")
             and name.split(": ")[1] != HIGHS_BINDING]
    assert [name for name in imported if name.endswith(HIGHS_BINDING)], "no binding import found"
    assert other == [], f"scipy.optimize imported outside {HIGHS_BINDING}: {other}"


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
