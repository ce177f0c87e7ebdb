"""Record rotor-otto's benchmark results in BENCH_<n>.json: one run per workload, or an A/B.

Usage, from the root of a checkout:

    python3 tools/bench.py record
    python3 tools/bench.py ab PARENT

Both modes run the benchmark as BENCHMARK.json declares it, `python3
perfbench/run.py`, unchanged, one fresh seed per run, and write BENCH_<n>.json
at the root of the checkout, n the next free integer.

- record runs every workload of BENCHMARK.json on this tree, untraced, then
  traced (--trace 1) on the same seed.
- ab PARENT extracts the parent's src/ with `git archive` into
  .bench_build/parent and copies this tree's src/ into .bench_build/change,
  each beside this tree's perfbench/ and BENCHMARK.json.  It runs PAIRS pairs
  of every workload; each pair runs both sides untraced on one fresh seed,
  alternating which side runs first.  Then it runs both sides traced
  (--trace 1) once per workload, on one fresh seed that they share.  The
  file holds, per workload and end-to-end metric, the per-pair values and
  winners, the medians, the quartiles, and the median and quartiles of the
  per-pair ratio change/parent; and per workload and per-layer metric, the
  traced runs' values side by side.

The file holds the commit (and whether tracked files differ from it), the
seeds, and each run's environment and result lines as the benchmark printed
them.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import secrets
import shutil
import statistics
import subprocess
import sys
import tarfile

SCHEMA = 1
PAIRS = 10
SIDES = ("parent", "change")
BUILD_DIR = ".bench_build"
RUN_KEYS = {"side", "workload", "seed", "trace", "env", "result"}
# compare's fields that files written before the paired ratios lack.
RATIO_KEYS = ("ratio_median", "ratio_quartiles")


class BenchError(Exception):
    """A benchmark run that printed no result, or a git command that failed."""


def git(root: str, *args: str, text: bool = True):
    out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=text)
    if out.returncode != 0:
        raise BenchError(f"git {' '.join(args)} failed: {out.stderr!s}")
    return out.stdout


def run_benchmark(checkout: str, side: str, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> dict:
    """One `perfbench/run.py` run in checkout; its last two stdout lines, verbatim."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}: {out.stderr[-2000:]}")
    run = {"side": side, "workload": workload, "seed": seed, "trace": trace,
           "env": lines[-2], "result": lines[-1]}
    result = json.loads(run["result"])
    shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                      if k in ("wall_s", "setup_s", "peak_rss_mb", "trace.wall_s"))
    print(f"bench: {side} {workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}, {shown}", file=sys.stderr)
    return run


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, as statistics.quantiles(n=4) gives them (the median of one or two)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def compare(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, the A/B statistics of the untraced runs.

    Runs pair up by (workload, seed).  A pair's winner is the side whose value
    is better, or "tie".  gain: at least PAIRS pairs ran, the change wins at
    least nine tenths of them, and its median is better than the parent's by
    more than the parent's interquartile distance.  within_bound: the
    change's median is worse than the parent's by at most the metric's
    bound, a share.  spread_exceeds_bound: the parent's interquartile
    distance, as a share of its median, is larger than that bound, and not
    every change run is better than every parent run, so the metric is
    unresolved.  ratio_median and ratio_quartiles summarize the pairs' ratios
    change/parent (pairs whose parent value is 0 have none); they are
    reported only, and no verdict reads them.
    """
    values: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        metrics = json.loads(run["result"])["metrics"]
        for m in end_to_end:
            values.setdefault(run["workload"], {}).setdefault(m["name"], {}).setdefault(
                run["seed"], {})[run["side"]] = metrics[m["name"]]["value"]
    table: dict = {}
    for workload, by_metric in values.items():
        for m in end_to_end:
            lower = m["better"] == "lower"
            pairs = []
            for seed, sides in by_metric[m["name"]].items():
                if set(sides) != set(SIDES):
                    raise ValueError(f"{workload} seed {seed} ran on {sorted(sides)} only")
                p, c = sides["parent"], sides["change"]
                winner = "tie" if p == c else "change" if (c < p) == lower else "parent"
                pairs.append([seed, p, c, winner])
            parent, change = [x[1] for x in pairs], [x[2] for x in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q = quartiles(parent)
            ratios = [c / p for _, p, c, _ in pairs if p != 0]
            wins = {side: sum(x[3] == side for x in pairs) for side in ("change", "parent", "tie")}
            gain = c_med - p_med if not lower else p_med - c_med
            apart = max(change) < min(parent) if lower else min(change) > max(parent)
            table.setdefault(workload, {})[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "pairs": pairs, "wins": wins,
                "parent_median": p_med, "change_median": c_med,
                "parent_quartiles": p_q, "change_quartiles": quartiles(change),
                "ratio_median": statistics.median(ratios) if ratios else None,
                "ratio_quartiles": quartiles(ratios) if ratios else None,
                "gain": (len(pairs) >= PAIRS and 10 * wins["change"] >= 9 * len(pairs)
                         and gain > p_q[1] - p_q[0]),
                "within_bound": -gain <= m["bound"] * abs(p_med),
                "spread_exceeds_bound": p_q[1] - p_q[0] > m["bound"] * abs(p_med) and not apart,
            }
    return table


def layers(runs: list[dict], per_layer: list[dict]) -> dict:
    """Per workload and per-layer metric, the parent's and the change's value from the traced runs.

    Each traced workload must have run once on each side, on one seed.
    """
    traced: dict = {}
    for run in runs:
        if run["trace"]:
            traced.setdefault(run["workload"], []).append(run)
    table: dict = {}
    for workload, pair in traced.items():
        if sorted(run["side"] for run in pair) != sorted(SIDES) or pair[0]["seed"] != pair[1]["seed"]:
            raise ValueError(f"{workload}: the traced runs are not one per side on a shared seed")
        metrics = {run["side"]: json.loads(run["result"])["metrics"] for run in pair}
        table[workload] = {m["name"]: {"unit": m["unit"], "better": m["better"],
                                       **{side: metrics[side][m["name"]]["value"] for side in SIDES}}
                           for m in per_layer if all(m["name"] in metrics[side] for side in SIDES)}
    return table


def summary(table: dict) -> list[str]:
    """One line per workload and metric of compare's table, paired ratio included; an
    unresolved metric gets no bound verdict."""
    lines = []
    for workload, by_metric in table.items():
        for name, s in by_metric.items():
            verdict = "unresolved" if s["spread_exceeds_bound"] else f"within bound {s['within_bound']}"
            ratio = ("none" if s["ratio_median"] is None else
                     f"{s['ratio_median']:.4g} [{s['ratio_quartiles'][0]:.4g}, {s['ratio_quartiles'][1]:.4g}]")
            lines.append(f"{workload:15} {name:12} parent {s['parent_median']:.4g} "
                         f"[{s['parent_quartiles'][0]:.4g}, {s['parent_quartiles'][1]:.4g}]  "
                         f"change {s['change_median']:.4g}  ratio {ratio}  change wins {s['wins']['change']}/"
                         f"{len(s['pairs'])}  gain {s['gain']}  {verdict}")
    return lines


def check_document(doc: dict) -> None:
    """ValueError unless doc is a BENCH file of this schema, its runs' lines intact."""
    try:
        _check(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"BENCH file: {type(exc).__name__}: {exc}") from exc


def _check(doc: dict) -> None:
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH file: {what}")

    need(doc.get("schema") == SCHEMA, f"schema is {doc.get('schema')!r}, not {SCHEMA}")
    need(doc.get("mode") in ("record", "ab"), f"unknown mode {doc.get('mode')!r}")
    need(isinstance(doc.get("commit"), str) and re.fullmatch(r"[0-9a-f]{40}", doc["commit"]) is not None,
         "commit is not a full git hash")
    need(isinstance(doc.get("dirty"), bool), "dirty is not a bool")
    need(isinstance(doc.get("seconds"), (int, float)) and doc["seconds"] > 0, "seconds is not positive")
    need(isinstance(doc.get("runs"), list) and doc["runs"], "no runs")
    seeds = set()
    for k, run in enumerate(doc["runs"]):
        need(set(run) == RUN_KEYS, f"run {k} has the keys {sorted(run)}")
        env, result = json.loads(run["env"])["env"], json.loads(run["result"])
        need((env["workload"], env["seed"]) == (run["workload"], run["seed"]),
             f"run {k}: its env line is of another run")
        need({"correct", "attempted", "failed", "metrics"} <= set(result),
             f"run {k}: its result line lacks a key")
        need(run["side"] in (SIDES if doc["mode"] == "ab" else ("tree",)), f"run {k}: side {run['side']!r}")
        seeds.add(run["seed"])
    need(sorted(seeds) == sorted(doc.get("seeds", [])), "seeds are not those of the runs")
    if doc["mode"] == "ab":
        need(isinstance(doc.get("parent"), str) and re.fullmatch(r"[0-9a-f]{40}", doc["parent"]) is not None,
             "parent is not a full git hash")
        # Files written before the paired ratios hold compare's table without them.
        table = compare(doc["runs"], doc["end_to_end"])
        before_ratios = {workload: {name: {k: v for k, v in s.items() if k not in RATIO_KEYS}
                                    for name, s in by_metric.items()}
                         for workload, by_metric in table.items()}
        need(doc.get("ab") in (table, before_ratios), "ab is not the comparison of the runs")
        # Files written before the traced pairs hold neither traced runs nor a trace table.
        need(doc.get("trace", {}) == layers(doc["runs"], doc.get("per_layer", [])),
             "trace is not the per-layer metrics of the traced runs")


def next_path(root: str) -> str:
    taken = [int(m.group(1)) for name in os.listdir(root) if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(root, f"BENCH_{max(taken, default=0) + 1}.json")


def write_document(root: str, doc: dict) -> str:
    check_document(doc)
    path = next_path(root)
    with open(path, "x") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def prepare_checkout(root: str, side: str, parent: str | None) -> str:
    """.bench_build/<side>: the parent's src/ (git archive) or this tree's, beside this perfbench/."""
    checkout = os.path.join(root, BUILD_DIR, side)
    shutil.rmtree(checkout, ignore_errors=True)
    os.makedirs(checkout)
    if parent is None:
        shutil.copytree(os.path.join(root, "src"), os.path.join(checkout, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    else:
        archive = git(root, "archive", "--format=tar", parent, "src", text=False)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
            tar.extractall(checkout, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    shutil.copytree(os.path.join(root, "perfbench"), os.path.join(checkout, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), checkout)
    return checkout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("record", help="run every workload on this tree, untraced and traced")
    ab = sub.add_parser("ab", help="alternate PARENT's src/ and this tree's on fresh seeds")
    ab.add_argument("parent", help="a git revision")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        print("bench: run from the root of a rotor-otto checkout (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    try:
        doc = {"schema": SCHEMA, "mode": args.mode, "commit": git(root, "rev-parse", "HEAD").strip(),
               "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no").strip()),
               "seconds": seconds}
        if args.mode == "record":
            # Distinct seeds: runs are told apart by (workload, seed).
            for workload, seed in zip(workloads, secrets.SystemRandom().sample(range(10**6), len(workloads))):
                runs += [run_benchmark(root, "tree", workload, seed, seconds, trace) for trace in (0, 1)]
        else:
            doc["parent"] = git(root, "rev-parse", "--verify", args.parent + "^{commit}").strip()
            checkouts = {"parent": prepare_checkout(root, "parent", doc["parent"]),
                         "change": prepare_checkout(root, "change", None)}
            seeds = iter(secrets.SystemRandom().sample(range(10**6), (PAIRS + 1) * len(workloads)))
            for k in range(PAIRS):
                for workload in workloads:
                    seed = next(seeds)
                    for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                        runs.append(run_benchmark(checkouts[side], side, workload, seed, seconds))
            for workload in workloads:
                seed = next(seeds)
                runs += [run_benchmark(checkouts[side], side, workload, seed, seconds, 1) for side in SIDES]
            doc["end_to_end"], doc["per_layer"] = spec["end_to_end"], spec["per_layer"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, BUILD_DIR), ignore_errors=True)
    doc["seeds"] = sorted({run["seed"] for run in runs})
    doc["runs"] = runs
    if args.mode == "ab":
        doc["ab"] = compare(runs, doc["end_to_end"])
        doc["trace"] = layers(runs, doc["per_layer"])
        print(*summary(doc["ab"]), sep="\n")
    print(f"bench: wrote {write_document(root, doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
