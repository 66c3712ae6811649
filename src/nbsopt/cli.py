"""Command-line interface tying the pipeline together for batch use.

Commands: gen, validate, kernels, cluster, build, solve, report, bench.
Exit codes: 0 ok, 2 validation/schema failure or an invalid option value,
3 solve failure, 4 IO failure.
All randomness flows from --seed; identical command lines over identical
inputs produce byte-identical primary outputs (timestamps and wall times are
confined to metadata fields).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import sys
from pathlib import Path
from typing import Any

from . import analysis, clustering, kernels as kf
from .engine import Placement
from .generator import generate_synthetic
from .instance import (
    GridDims,
    Instance,
    InstanceError,
    SchemaError,
    ValidationError,
    _is_number,
    _parse_cells,
    _shown,
    load_instance,
    read_json,
    save_instance,
    write_json,
)
from .model import (
    OBJECTIVE_MATCH_TOL,
    InfeasiblePlacement,
    build_model,
    expected_variable_count,
    objective_normalizers,
)
from .mps import export_interchange
from .solve import (
    DEFAULT_TIME_LIMIT,
    DEFAULT_UNIT_CAP,
    STATUS_ERROR,
    ClaimRejected,
    OracleCapExceeded,
    SolveConfig,
    SolveResult,
    check_claim,
    solve,
)
from .suite import desk_suite

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVE = 3
EXIT_IO = 4

# Instance side lengths by size label.
SIZE_TABLE = {"xs": 50, "s": 100, "m": 200, "l": 300}


def _fail(code: str, message: str, exit_code: int) -> int:
    print(f"error code={code} message={json.dumps(message)}", file=sys.stderr)
    return exit_code


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise SchemaError("config", "config file must hold a JSON object")
    return raw


def _pick(args: argparse.Namespace, config: dict, key: str, default: Any) -> Any:
    """Flag value if given, else config value, else the built-in default.

    A config value has its flag's type, which the default's type gives: an
    integer for a count, a number (returned as a float) for any other numeric
    key, and text for a key with a text or no default. A boolean is not a
    number; a value of any other type raises SchemaError naming the key."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in config:
        return default
    value, kind = config[key], type(default)
    if not (_is_number(value, kind is int) if kind in (int, float) else isinstance(value, str)):
        expected = {int: "an integer", float: "a number"}.get(kind, "a string")
        raise SchemaError(f"config.{key}", f"expected {expected}, got {_shown(value)}")
    return float(value) if kind is float else value


def _result_to_dict(result: SolveResult, inst: Instance) -> dict[str, Any]:
    placement = result.placement
    new_cells = None if placement is None else {
        t: [list(c) for c in cells] for t, cells in placement.new_cells(inst).items()}
    return {
        "status": result.status,
        "objective": result.objective,
        "bound": result.bound,
        "new_cells": new_cells,
        "objective_terms": result.breakdown.terms if result.breakdown else None,
        "metadata": {
            "backend": result.backend,
            "wall_time": result.wall_time,
            "message": result.message,
        },
    }


def _result_from_dict(raw: Any, inst: Instance) -> SolveResult:
    """A result file's content; SchemaError unless it is an object whose
    `new_cells` name known NBS ids and integer [i, j] cells inside the grid,
    whose `objective` and `bound` are finite numbers or null, whose `status`
    is a string, and whose `metadata` is an object with a finite numeric
    `wall_time` and a string `backend` and `message`. Booleans are not
    numbers here. Only an optimal or feasible-timeout result, the ones the
    program writes with a placement, may hold `new_cells`."""
    if not isinstance(raw, dict):
        raise SchemaError("result", "expected a JSON object")
    placement = None
    new_cells = raw.get("new_cells")
    if new_cells is not None:
        if not isinstance(new_cells, dict):
            raise SchemaError("result.new_cells", "expected an object keyed by NBS id")
        w, h = inst.dims.shape
        by_type = {}
        for t, raw_cells in new_cells.items():
            where = f"result.new_cells.{t}"
            if t not in inst.nbs_ids:
                raise SchemaError(where, "unknown NBS id")
            by_type[t] = _parse_cells(raw_cells, where)
            for i, j in sorted(by_type[t]):
                if not (0 <= i < w and 0 <= j < h):
                    raise SchemaError(
                        where, f"cell [{_shown(i)}, {_shown(j)}] outside the {w}x{h} grid")
        placement = Placement.from_new_cells(inst, by_type)
    meta = raw.get("metadata", {})
    if not isinstance(meta, dict):
        raise SchemaError("result.metadata", "expected a JSON object")
    wall_time = meta.get("wall_time")
    for where, value in (("objective", raw.get("objective")), ("bound", raw.get("bound")),
                         ("metadata.wall_time", wall_time)):
        if value is not None and not (_is_number(value) and math.isfinite(value)):
            raise SchemaError(f"result.{where}", "expected a finite number")
    status = raw.get("status", STATUS_ERROR)
    backend, message = meta.get("backend", "unknown"), meta.get("message", "")
    for where, value in (("status", status), ("metadata.backend", backend),
                         ("metadata.message", message)):
        if not isinstance(value, str):
            raise SchemaError(f"result.{where}", "expected a string")
    result = SolveResult(status, backend, placement, raw.get("objective"), raw.get("bound"),
                         float(wall_time or 0.0), message=message)
    if placement is not None and not result.ok:
        raise SchemaError("result.new_cells", f"a {status!r} result holds no placement")
    return result


# --- Commands ----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace, config: dict) -> int:
    side = SIZE_TABLE[args.size]
    inst = generate_synthetic(
        seed=args.seed,
        dims=GridDims(side, side, _pick(args, config, "resolution", 10.0)),
        nbs_count=_pick(args, config, "nbs", 4),
        measure_count=_pick(args, config, "measures", 4),
        forbidden_fraction=_pick(args, config, "forbidden_frac", 0.3),
        pre_existing_fraction=_pick(args, config, "pre_frac", 0.07),
    )
    save_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.dims.width}x{inst.dims.height})")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: dict) -> int:
    inst = load_instance(args.instance)
    print(
        f"ok: {inst.dims.width}x{inst.dims.height}, "
        f"{len(inst.nbs)} NBS, {len(inst.measures)} measures"
    )
    return EXIT_OK


def cmd_kernels(args: argparse.Namespace, config: dict) -> int:
    kernel_map, fairness = kf.default_kernel_set()
    print(f"{'NBS':<4} {'measure':<10} {'size':<7} {'edge':>6} {'center':>7}")
    for t in kf.DEFAULT_NBS_IDS:
        for u in kf.DEFAULT_MEASURE_IDS:
            k = kernel_map[(u, t)]
            _, edge, center = kf.KERNEL_TABLE[(t, u)]
            print(f"{t:<4} {u:<10} {k.width}x{k.height:<5} {edge:>6} {center:>7}")
        k = fairness[t]
        _, edge, center = kf.FAIRNESS_TABLE[t]
        print(f"{t:<4} {'Fairness':<10} {k.width}x{k.height:<5} {edge:>6} {center:>7}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace, config: dict) -> int:
    inst = load_instance(args.instance)
    nbs_ids = args.nbs if args.nbs else None
    clusters = clustering.partition_instance(
        inst,
        nbs_ids=nbs_ids,
        min_size=_pick(args, config, "min", clustering.DEFAULT_MIN_SIZE),
        max_size=_pick(args, config, "max", clustering.DEFAULT_MAX_SIZE),
    )
    save_instance(clustering.with_clusters(inst, clusters), args.out)
    total = sum(map(len, clusters.values()))
    print(f"wrote {args.out} ({total} cluster(s))")
    return EXIT_OK


def cmd_build(args: argparse.Namespace, config: dict) -> int:
    inst = load_instance(args.instance)
    model = build_model(inst)
    expected = expected_variable_count(inst)
    if model.n_variables != expected:
        raise RuntimeError(
            f"model has {model.n_variables} columns, the closed form gives {expected}"
        )
    export_interchange(model, args.out)
    print(f"wrote {args.out} ({model.n_variables} columns, {model.n_constraints} rows)")
    return EXIT_OK


def _solve_config(args: argparse.Namespace, config: dict) -> SolveConfig:
    return SolveConfig(
        backend=_pick(args, config, "backend", "external"),
        time_limit=_pick(args, config, "timelimit", DEFAULT_TIME_LIMIT),
        gap=_pick(args, config, "gap", 0.0),
        solver_cmd=_pick(args, config, "solver_cmd", None),
        unit_cap=_pick(args, config, "cap", DEFAULT_UNIT_CAP),
        workdir=Path(args.workdir) if getattr(args, "workdir", None) else None,
    )


def cmd_solve(args: argparse.Namespace, config: dict) -> int:
    inst = load_instance(args.instance)
    result = solve(inst, _solve_config(args, config))
    print(
        f"status={result.status} objective={result.objective} "
        f"wall_time={result.wall_time:.3f}s"
    )
    if args.out:
        write_json(_result_to_dict(result, inst), args.out)
    if result.status == STATUS_ERROR:
        return _fail("solve.error", result.message or "solver failed", EXIT_SOLVE)
    return EXIT_OK


def cmd_report(args: argparse.Namespace, config: dict) -> int:
    inst = load_instance(args.instance)
    claim = _result_from_dict(read_json(args.result, "result"), inst)
    if claim.placement is None:
        return _fail("report.no-placement", f"result status {claim.status!r}", EXIT_SOLVE)
    result = check_claim(inst, objective_normalizers(inst), claim, OBJECTIVE_MATCH_TOL)
    report = analysis.build_report(inst, result)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_report(report, out_dir / "report.json")
    analysis.export_heatmaps(report, out_dir)
    print(f"wrote {out_dir}")
    return EXIT_OK


def _bench_one(
    seed: int, inst: Instance, cfg: SolveConfig, out_dir: str | None
) -> analysis.Report | dict[str, Any]:
    """The seed's report, or a `failed` entry when its solve does not succeed."""
    result = solve(inst, cfg)
    if not result.ok:
        return {"seed": seed, "status": result.status, "message": result.message}
    report = analysis.build_report(inst, result)
    if out_dir:
        inst_dir = Path(out_dir) / f"seed_{seed}"
        inst_dir.mkdir(parents=True, exist_ok=True)
        save_instance(inst, inst_dir / "instance.json")
        write_json(_result_to_dict(result, inst), inst_dir / "result.json")
        analysis.write_report(report, inst_dir / "report.json")
        analysis.export_heatmaps(report, inst_dir)
    return report


def cmd_bench(args: argparse.Namespace, config: dict) -> int:
    count = _pick(args, config, "seeds", 10)
    if count < 1:
        raise ValueError(f"seeds must be >= 1, got {count}")
    start = _pick(args, config, "start_seed", 0)
    cfg = _solve_config(args, config)
    jobs = _pick(args, config, "jobs", 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out_dir = args.out_dir

    suite = desk_suite(count, start_seed=start, unit_cap=cfg.unit_cap)
    if jobs == 1:
        outcomes = [_bench_one(seed, inst, cfg, out_dir) for seed, inst in suite]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_bench_one, seed, inst, cfg, out_dir) for seed, inst in suite
            ]
            outcomes = [f.result() for f in futures]

    reports = [o for o in outcomes if isinstance(o, analysis.Report)]
    failed = [o for o in outcomes if not isinstance(o, analysis.Report)]
    stats = analysis.batch_stats(reports) if reports else {}
    stats["failed"] = failed
    print(json.dumps(stats, indent=2))
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_json(stats, Path(out_dir) / "stats.json")
    if failed:
        message = f"{len(failed)} of {len(outcomes)} seed(s) failed"
        return _fail("bench.failed", message, EXIT_SOLVE)
    return EXIT_OK


# --- Parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbsopt",
        description="Optimal placement of nature-based solutions on urban grids.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZE_TABLE), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nbs", type=int, help="number of NBS types (default 4)")
    p.add_argument("--measures", type=int, help="number of measures (default 4)")
    p.add_argument("--forbidden-frac", dest="forbidden_frac", type=float)
    p.add_argument("--pre-frac", dest="pre_frac", type=float)
    p.add_argument("--resolution", type=float, help="meters per cell side (default 10)")
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")
    p.add_argument("--config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kernels", help="print the default kernel catalog")
    p.add_argument("--config")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("cluster", help="annotate an instance with clusters")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    p.add_argument("--nbs", nargs="*", help="NBS ids to cluster (default: UP)")
    p.add_argument("--min", type=int, help="minimum cluster size (default 5)")
    p.add_argument("--max", type=int, help="maximum cluster size (default 50)")
    p.add_argument("--config")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("build", help="export the MILP as a free-format MPS file")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--backend", choices=["oracle", "external"])
    p.add_argument("--timelimit", type=float, help="seconds (default 1800)")
    p.add_argument("--gap", type=float, help="relative MIP gap (default 0)")
    p.add_argument("--solver-cmd", dest="solver_cmd", help="command template")
    p.add_argument("--cap", type=int, help="oracle decision-unit cap (default 16)")
    p.add_argument("--workdir", help="keep the solved model's model.mps and solution.sol "
                   "here (the compact model; the default solves in-process, --solver-cmd "
                   "runs a subprocess over MPS)")
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="build report and heatmaps from a result")
    p.add_argument("instance")
    p.add_argument("result")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="run a seeded desk-scale suite")
    p.add_argument("--seeds", type=int, help="number of instances (default 10)")
    p.add_argument("--start-seed", dest="start_seed", type=int)
    p.add_argument("--backend", choices=["oracle", "external"])
    p.add_argument("--timelimit", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--jobs", type=int, help="concurrent solves (default 1)")
    p.add_argument("--out-dir", dest="out_dir", help="per-instance output root")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench)

    return parser


def _schema_owner(field: str) -> str:
    """The file a malformed field belongs to: the result, the config, or else
    the instance."""
    root = field.split(".", 1)[0]
    return root if root in ("result", "config") else "instance"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except SchemaError as exc:
        return _fail(f"{_schema_owner(exc.field)}.schema", str(exc), EXIT_VALIDATION)
    except ValidationError as exc:
        return _fail("instance.validation", str(exc), EXIT_VALIDATION)
    except InstanceError as exc:
        return _fail("instance.error", str(exc), EXIT_VALIDATION)
    except InfeasiblePlacement as exc:
        return _fail("placement.infeasible", str(exc), EXIT_VALIDATION)
    except ClaimRejected as exc:
        return _fail("result.mismatch", str(exc), EXIT_VALIDATION)
    except OracleCapExceeded as exc:
        return _fail("solve.cap", str(exc), EXIT_SOLVE)
    except FileNotFoundError as exc:
        return _fail("io.missing", str(exc), EXIT_IO)
    except OSError as exc:
        return _fail("io.error", str(exc), EXIT_IO)
    except RuntimeError as exc:
        return _fail("solve.error", str(exc), EXIT_SOLVE)
    except ValueError as exc:  # an option value out of its range
        return _fail("usage.invalid", str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
