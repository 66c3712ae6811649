"""One benchmark workload, run in its own process by perfbench/run.py.

    python perfbench/workloads.py setup --workload W --work DIR
    python perfbench/workloads.py run --workload W --seed N --seconds S --trace 0|1 --work DIR

`setup` makes the workload's inputs and exits; run.py times it from process
start to exit, so set-up time includes the imports. `run` makes the inputs
again, runs whole rounds of timed operations (one caller, one operation at a
time), checks every output against the independent checker outside the
timed region, and prints one JSON line. With `--trace 1` it installs spans
on the program's public functions and reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shlex
import sys
import time
from pathlib import Path

import numpy as np

import checker as ck
from tracing import Tracer, median_or_zero

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Inputs are fixed so that every count repeats exactly from run to run; the
# seed shuffles the order of the operations within each round.
DESK_COUNT = 20
MID_SIDES = (12, 14, 16, 18)
MID_SEED = 4
MID_TIME_LIMIT = 60.0
BUILD_SIDE = 50
BUILD_SEED = 7
GENERATOR = dict(nbs_count=4, measure_count=4, forbidden_fraction=0.55, pre_existing_fraction=0.05)

# Nominal seconds of one round on a 2-core machine; --seconds is turned into a
# whole number of rounds with these, so a run's operation count is fixed.
# build-50 runs at least two builds, so that their files can be compared byte
# for byte; at --seconds 30 it runs five, enough for a median that one slow
# stretch of a shared machine does not move.
ROUND_SECONDS = {"desk": 25.0, "mid-solve": 17.0, "build-50": 6.0}
MIN_ROUNDS = {"desk": 1, "mid-solve": 1, "build-50": 2}

SETUP_LAYERS = ("generator.generate_synthetic_s", "clustering.partition_instance_s")
PER_LAYER = (
    ("generator.generate_synthetic_s", "s"),
    ("clustering.partition_instance_s", "s"),
    ("instance.load_instance_s", "s"),
    ("model.objective_normalizers_s", "s"),
    ("model.build_model_s", "s"),
    ("model.columns", "count"),
    ("model.rows", "count"),
    ("model.nonzeros", "count"),
    ("mps.export_interchange_s", "s"),
    ("mps.bytes", "B"),
    ("solve.solver_process_s", "s"),
    ("solver_cli.startup_s", "s"),
    ("mps.read_mps_s", "s"),
    ("solver_cli.solve_mps_s", "s"),
    ("solver_cli.mip_nodes", "count"),
    ("solver_cli.write_solution_s", "s"),
    ("solver_cli.solution_bytes", "B"),
    ("solver_cli.peak_rss_mb", "MB"),
    ("solve.parse_solution_file_s", "s"),
    ("solve.placement_from_values_s", "s"),
    ("model.check_placement_s", "s"),
    ("model.evaluate_solution_s", "s"),
    ("analysis.build_report_s", "s"),
    ("trace.op_s_p50", "s"),
)


def clustered(seed: int, side: int):
    """The generator's instance with urban parks clustered, as `nbsopt cluster` does."""
    from nbsopt import clustering, generator
    from nbsopt.instance import GridDims

    inst = generator.generate_synthetic(seed, GridDims(side, side), **GENERATOR)
    return clustering.with_clusters(inst, clustering.partition_instance(inst, ["UP"]))


def make_inputs(workload: str, work: Path) -> list[tuple[str, object]]:
    if workload == "desk":
        from nbsopt import suite

        return [(f"desk-{seed}", inst) for seed, inst in suite.desk_suite(DESK_COUNT)]
    if workload == "mid-solve":
        return [(f"{side}x{side}", clustered(MID_SEED, side)) for side in MID_SIDES]
    from nbsopt.instance import save_instance

    inst = clustered(BUILD_SEED, BUILD_SIDE)
    save_instance(inst, work / "build.json")
    return [(f"{BUILD_SIDE}x{BUILD_SIDE}", inst)]


# --- Operations --------------------------------------------------------------


def desk_op(inst, work: Path, solver_cmd: str | None):
    """One `nbsopt bench` item: external solve with the bench defaults, then the report."""
    from nbsopt import analysis
    from nbsopt.solve import SolveConfig, solve

    result = solve(inst, SolveConfig(backend="external", solver_cmd=solver_cmd))
    if not result.ok:
        return None
    return result, analysis.build_report(inst, result)


def mid_op(inst, work: Path, solver_cmd: str | None):
    """One external solve to a proven optimum."""
    from nbsopt.solve import SolveConfig, solve

    result = solve(
        inst, SolveConfig(backend="external", time_limit=MID_TIME_LIMIT, solver_cmd=solver_cmd)
    )
    return result if result.status == "optimal" else None


def build_op(inst, work: Path, solver_cmd: str | None):
    """`nbsopt build build.json --out build.mps`: load, build_model, export_interchange."""
    from nbsopt import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["build", str(work / "build.json"), "--out", str(work / "build.mps")])
    return code if code == 0 else None


def flush_build(work: Path) -> None:
    """Write the previous build's file to disk and remove it, so that no build
    waits on the dirty pages of the one before it."""
    path = work / "build.mps"
    if path.exists():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        path.unlink()


OPS = {"desk": desk_op, "mid-solve": mid_op, "build-50": build_op}


# --- Checks (outside the timed region) ---------------------------------------


def check_desk(done, work: Path, seed: int) -> None:
    """Every optimum equals exhaustive enumeration; the checker agrees with it."""
    from nbsopt.solve import solve_oracle

    oracle: dict[str, float] = {}
    for label, inst, (result, report) in done:
        if label not in oracle:
            oracle[label] = solve_oracle(inst).objective
        if not ck.close(result.objective, oracle[label]):
            raise ck.CheckFailed(f"{label}: optimum {result.objective!r}, oracle {oracle[label]!r}")
        ck.Checker(inst).verify(result.placement.masks, result.objective)
        if not ck.close(report.objective.total, result.objective):
            raise ck.CheckFailed(f"{label}: report objective {report.objective.total!r}")


def check_mid(done, work: Path, seed: int) -> None:
    """Proven optimum, no worse than do-nothing and a greedy placement."""
    baselines: dict[str, tuple[float, float]] = {}
    for label, inst, result in done:
        judge = ck.Checker(inst)
        judge.verify(result.placement.masks, result.objective)
        tol = 1e-6 * max(1.0, abs(result.objective))
        # HiGHS runs with mip_rel_gap 0 and its default absolute gap 1e-6;
        # the objective is re-evaluated to within 1e-6 relative of HiGHS's own.
        if not -tol <= result.objective - result.bound <= tol + 1e-6:
            raise ck.CheckFailed(f"{label}: bound {result.bound!r} vs {result.objective!r}")
        if label not in baselines:
            baselines[label] = (judge.objective(judge.do_nothing()), judge.objective(judge.greedy()))
        for name, value in zip(("do-nothing", "greedy"), baselines[label]):
            if result.objective > value + tol:
                raise ck.CheckFailed(f"{label}: optimum {result.objective!r} worse than {name} {value!r}")


def check_build(done, work: Path, seed: int) -> None:
    """Closed-form size, identical bytes, and a lifted placement satisfying every row."""
    digests = {digest for _, _, digest in done}
    if len(digests) != 1:
        raise ck.CheckFailed(f"MPS bytes differ between operations: {sorted(digests)}")
    inst = done[0][1]
    judge = ck.Checker(inst)
    masks = judge.scattered(np.random.default_rng(seed))
    seen = ck.check_mps(work / "build.mps", ck.lift(judge, masks))
    columns, rows = ck.expected_counts(inst)
    if (seen["columns"], seen["rows"]) != (columns, rows):
        raise ck.CheckFailed(f"file has {seen['columns']}x{seen['rows']}, closed form {columns}x{rows}")
    value = judge.objective(masks)
    if not ck.close(seen["objective"], value):
        raise ck.CheckFailed(f"objective row gives {seen['objective']!r}, checker {value!r}")


CHECKS = {"desk": check_desk, "mid-solve": check_mid, "build-50": check_build}


# --- Tracing -----------------------------------------------------------------


def install_spans(tracer: Tracer, solver_files: list[str]) -> None:
    import importlib
    import subprocess

    # importlib, because the package's `solve` attribute is the function, not the module
    analysis, clustering, generator, instance, model, mps, solve = (
        importlib.import_module(f"nbsopt.{name}")
        for name in ("analysis", "clustering", "generator", "instance", "model", "mps", "solve")
    )

    def note_model(record, built, args):
        record["notes"].update({
            "model.columns": built.n_variables,
            "model.rows": built.n_constraints,
            "model.nonzeros": sum(len(c.indices) for c in built.constraints),
        })

    def note_bytes(record, _, args):
        record["notes"]["mps.bytes"] = Path(args[1]).stat().st_size

    def note_solver(record, _, args):
        spans = json.loads(Path(f"{args[0]}.spans.json").read_text(encoding="utf-8"))
        solver_files.append(spans.pop("nbsopt_file"))
        record["notes"].update(spans)

    tracer.install(generator, "generate_synthetic", "generator.generate_synthetic")
    tracer.install(clustering, "partition_instance", "clustering.partition_instance")
    tracer.install(instance, "load_instance", "instance.load_instance")
    tracer.install(model, "objective_normalizers", "model.objective_normalizers")
    tracer.install(model, "build_model", "model.build_model", note_model)
    tracer.install(mps, "export_interchange", "mps.export_interchange", note_bytes)
    tracer.install(subprocess, "run", "solve.solver_process")
    tracer.install(solve, "parse_solution_file", "solve.parse_solution_file", note_solver)
    tracer.install(solve, "placement_from_values", "solve.placement_from_values")
    tracer.install(model, "check_placement", "model.check_placement")
    tracer.install(model, "evaluate_solution", "model.evaluate_solution")
    tracer.install(analysis, "build_report", "analysis.build_report")


def layer_metrics(tracer: Tracer, op_times: list[float]) -> dict[str, float]:
    """Median over operations of each layer's self time or count.

    Set-up layers run before the first operation; theirs is the median over
    their calls. A layer that does not run in the workload reads 0.
    """
    rows = tracer.per_root("op")
    for row in rows:
        if "solve.solver_process_s" in row:
            inside = ("mps.read_mps_s", "solver_cli.solve_mps_s", "solver_cli.write_solution_s")
            row["solver_cli.startup_s"] = row["solve.solver_process_s"] - sum(row[k] for k in inside)
    out = {"trace.op_s_p50": median_or_zero(op_times)}
    for name, _ in PER_LAYER:
        if name in SETUP_LAYERS:
            out[name] = median_or_zero(tracer.call_self_times(name[: -len("_s")]))
        elif name not in out:
            out[name] = median_or_zero(row.get(name, 0) for row in rows)
    return out


# --- Entry points ------------------------------------------------------------


def run(args) -> dict:
    import nbsopt

    here = Path(nbsopt.__file__).resolve()
    if here != ROOT / "src" / "nbsopt" / "__init__.py":
        raise ck.CheckFailed(f"nbsopt imported from {here}, not from this checkout")

    tracer = Tracer() if args.trace else None
    solver_files: list[str] = []
    solver_cmd = None
    if tracer is not None:
        install_spans(tracer, solver_files)
        solver_cmd = " ".join(
            [shlex.quote(sys.executable), shlex.quote(str(BENCH / "traced_solver.py")),
             "{model}", "{solution}", "{timelimit}"]
        )

    with tracer.span("setup") if tracer else contextlib.nullcontext():
        inputs = make_inputs(args.workload, args.work)

    op = OPS[args.workload]
    rounds = max(MIN_ROUNDS[args.workload], round(args.seconds / ROUND_SECONDS[args.workload]))
    order = random.Random(args.seed)
    times: list[float] = []
    done = []
    failed = 0
    for _ in range(rounds):
        batch = list(inputs)
        order.shuffle(batch)
        for label, inst in batch:
            if args.workload == "build-50":
                flush_build(args.work)
            with tracer.span("op") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = op(inst, args.work, solver_cmd)
                elapsed = time.perf_counter() - t0
            if out is None:
                failed += 1
                continue
            times.append(elapsed)
            if args.workload == "build-50":
                out = ck.file_digest(args.work / "build.mps")
            done.append((label, inst, out))
    peak_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024

    if done:
        CHECKS[args.workload](done, args.work, args.seed)
    if tracer is not None:
        want = str(ROOT / "src" / "nbsopt" / "__init__.py")
        if any(f != want for f in solver_files):
            raise ck.CheckFailed(f"solver subprocess imported nbsopt from {set(solver_files)}")
        tracer.dump(BENCH / "out" / f"spans-{args.workload}.json")
        values = layer_metrics(tracer, times)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {
            "op_s_p50": (median_or_zero(times), "s"),
            "wall_s": (sum(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    return {
        "attempted": len(times) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        make_inputs(args.workload, args.work)
        return 0
    try:
        result = run(args)
    except ck.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
