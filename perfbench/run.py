"""Benchmark of rotor-otto: figure-grid sweeps and point queries.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fig67_magnetic --seed 1 --seconds 40 --trace 0

Each repetition of a workload runs in a fresh interpreter (worker.py) with
one working thread, so the program's caches start empty as they do for a
CLI user.  Repetitions are started until the next one would end more
than --seconds after the run began (at least two); set-up-only interpreters
fill the time left, for more samples of the import.  The last line on
stdout is one JSON object with the keys correct, attempted, failed and
metrics; with --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones, from traced repetitions alternating with untraced ones.
The line before it records the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig67_magnetic", "fig34_electric", "point_queries")
SETUP_SAMPLES = 3
MIN_REPS = 2
# What one set-up-only interpreter takes, start to exit, with some margin.
SETUP_CHILD_S = 1.5
# A run ends within this many seconds, or fails.
RUN_LIMIT_S = 170
# Thread variables of the BLAS/OpenMP runtimes numpy and scipy may load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def monotonic() -> float:
    # The same clock as worker.py's import stamp, comparable across processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Failure(Exception):
    """A repetition that could not run; the benchmark prints no result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("ROTOR_OTTO_THREADS", None)
    # Import from cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def start_worker(args, env, out_dir, deadline, traced=False, setup_only=False) -> dict:
    """Run worker.py once, ending by the monotonic deadline; return its JSON with setup_s."""
    os.makedirs(out_dir)
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--seed", str(args.seed), "--out-dir", out_dir]
    cmd += ["--setup-only"] if setup_only else ["--workload", args.workload]
    if traced:
        cmd.append("--trace")
    started = monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Failure(f"worker still running after the run's {RUN_LIMIT_S} s: {' '.join(cmd)}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise Failure(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def end_to_end(reps, setups) -> dict:
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(traced, untraced, units) -> tuple[dict, list[str]]:
    """Medians of the traced times and shares; counts, which must repeat exactly."""
    metrics = {}
    problems = []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        values = [r["layers"][name] for r in traced]
        if unit in ("s", "%"):
            metrics[name] = (statistics.median(values), unit)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced repetitions: {values}")
            metrics[name] = (values[0], unit)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "rotor_otto")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rotor_otto", "cli.py")):
        print("perfbench: run from the root of a rotor-otto checkout (src/rotor_otto not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = child_env(root)
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    counter = itertools.count()
    deadline = monotonic() + RUN_LIMIT_S

    def worker(**kwargs):
        return start_worker(args, env, os.path.join(scratch, str(next(counter))), deadline, **kwargs)

    try:
        begin = monotonic()
        worker(setup_only=True)  # compiles bytecode and warms the file cache; not measured
        setups = [worker(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
        reps = []
        longest = 0.0
        while True:
            rep_start = monotonic()
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = worker(traced=traced)
            rep["traced"] = traced
            reps.append(rep)
            if not traced:
                setups.append(rep["setup_s"])
            now = monotonic()
            longest = max(longest, now - rep_start)
            print(f"perfbench: repetition {len(reps)}{' (traced)' if traced else ''}: "
                  f"wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
                  f"took {now - rep_start:.1f} s", file=sys.stderr)
            if len(reps) >= MIN_REPS and now - begin + longest > args.seconds:
                break
        while monotonic() - begin + SETUP_CHILD_S <= args.seconds:
            setups.append(worker(setup_only=True)["setup_s"])
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    problems = [f"{name}: {detail}" for r in reps for name, ok, detail in r["checks"] if not ok]
    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, count_problems = per_layer([r for r in reps if r["traced"]], untraced, units)
        problems += count_problems
    else:
        metrics = end_to_end(untraced, setups)
    for line in sorted(set(problems)):
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    print(json.dumps({"env": {
        "commit": commit(root), "source_sha256": source_digest(root), **reps[0]["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "repetitions": len(reps),
        "setup_samples": [round(x, 4) for x in setups],
        "rep_wall_s": [round(r["wall_s"], 4) for r in reps],
    }}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
