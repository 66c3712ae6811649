"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload desk|mid-solve|build-50 --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It puts the checkout's `src` first on
PYTHONPATH, for the workload process and the solver processes it starts, and
keeps every file it writes under `perfbench/.work` (removed at exit) and
`perfbench/out`.

With `--trace 0` it times set-up in fresh processes (imports plus making the
inputs; the median of several, half before and half after the workload),
runs the workload in a fresh process, and reports `setup_s`, `op_s_p50`,
`wall_s` and `peak_rss_mb`. With `--trace 1` it runs the workload once with spans on the
program's public functions and reports the per-layer metrics instead.
The exit code is 0 only when every check of the outputs passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
WORKLOADS = ("build-50", "desk", "mid-solve")
SETUP_PROBES = 4
PROCESS_LIMIT = 170.0


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    env["TMPDIR"] = str(work / "tmp")
    env.pop("NBSOPT_SOLVER_CMD", None)  # the default bundled solver, unless tracing
    return env


def call(args: list[str], env: dict[str, str], deadline: float) -> subprocess.CompletedProcess:
    """Run a process in its own group; kill the whole group if it outlives the deadline."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def time_setups(count: int, common: list[str], env, deadline: float, times: list[float]) -> int:
    """Append the wall time of `count` set-up processes to `times`; return the first failing exit code."""
    for _ in range(count):
        t0 = time.perf_counter()
        done = call(["setup", *common], env, deadline)
        if done.returncode != 0:
            return done.returncode
        times.append(time.perf_counter() - t0)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one nbsopt benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nbsopt" / "__init__.py").is_file():
        print(f"error: no nbsopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + PROCESS_LIMIT
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = child_env(work)
    common = ["--workload", args.workload, "--work", str(work)]
    # Half of the set-up processes run before the workload and half after it,
    # so that their median does not hang on one stretch of machine load.
    probes = 0 if args.trace else SETUP_PROBES
    setups: list[float] = []
    try:
        code = time_setups((probes + 1) // 2, common, env, deadline, setups)
        if code == 0:
            done = call(
                ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                env, deadline,
            )
            code = done.returncode or time_setups(probes // 2, common, env, deadline, setups)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {PROCESS_LIMIT:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        print(f"error: a benchmark process exited with {code}", file=sys.stderr)
        return 1

    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
