"""tools/bench.py: a BENCH file built from stored benchmark lines passes its schema check,
a damaged one does not, and every BENCH file at the root passes; no benchmark runs."""

import copy
import importlib.util
import json
import pathlib
import shutil
import statistics
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# The environment and result lines of one `perfbench/run.py --workload point_queries --trace 0` run.
ENV_LINE = (
    '{"env": {"commit": "f07a5b0f802a1a9e5594cb7726e48249c673cb29", "source_sha256": "974c16ad71ba51af", '
    '"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2, "affinity": 2, '
    '"workload": "point_queries", "seed": 5, "repetitions": 2, '
    '"setup_samples": [0.164, 0.1928, 0.1736, 0.1641, 0.1785], "rep_wall_s": [2.0919, 2.049]}}'
)
RESULT_LINE = (
    '{"correct": true, "attempted": 14212, "failed": 0, "metrics": {'
    '"wall_s": {"value": 2.070447760503157, "unit": "s"}, '
    '"setup_s": {"value": 0.17362218198832124, "unit": "s"}, '
    '"peak_rss_mb": {"value": 67.9453125, "unit": "MB"}}}'
)
# The result line of a `--trace 1` run, cut to four of its per-layer metrics.
TRACED_RESULT_LINE = (
    '{"correct": true, "attempted": 30, "failed": 0, "metrics": {'
    '"trace.wall_s": {"value": 0.2985523310053395, "unit": "s"}, '
    '"sweep.write_csv_pct": {"value": 46.69032472149257, "unit": "%"}, '
    '"sweep.cells": {"value": 80000, "unit": "count"}, '
    '"qelectric.cache_hits": {"value": 0, "unit": "count"}}}'
)
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
COMMIT = "0" * 40


def stored_run(side, seed, peak_rss_mb):
    env, result = json.loads(ENV_LINE), json.loads(RESULT_LINE)
    env["env"]["seed"] = seed
    result["metrics"]["peak_rss_mb"]["value"] = peak_rss_mb
    return {"side": side, "workload": "point_queries", "seed": seed, "trace": 0,
            "env": json.dumps(env), "result": json.dumps(result)}


def traced_run(side, seed, write_csv_pct):
    env, result = json.loads(ENV_LINE), json.loads(TRACED_RESULT_LINE)
    env["env"]["seed"] = seed
    result["metrics"]["sweep.write_csv_pct"]["value"] = write_csv_pct
    return {"side": side, "workload": "point_queries", "seed": seed, "trace": 1,
            "env": json.dumps(env), "result": json.dumps(result)}


def ab_document(pairs=10, rss=lambda side, seed: 69.3 + 0.01 * seed - (side == "change") * 1.2):
    # By default the change holds 1.2 MB less in every pair; wall_s and setup_s tie.
    # One traced run per side follows on seed 100, as `ab` runs them.
    runs = [stored_run(side, seed, rss(side, seed)) for seed in range(pairs) for side in bench.SIDES]
    runs += [traced_run(side, 100, 40.0 + (side == "change")) for side in bench.SIDES]
    return {"schema": bench.SCHEMA, "mode": "ab", "commit": COMMIT, "dirty": False, "seconds": 40,
            "parent": "1" * 40, "end_to_end": END_TO_END, "per_layer": PER_LAYER,
            "seeds": [*range(pairs), 100], "runs": runs,
            "ab": bench.compare(runs, END_TO_END), "trace": bench.layers(runs, PER_LAYER)}


def test_ab_document_from_stored_lines():
    doc = ab_document()
    bench.check_document(json.loads(json.dumps(doc)))
    rss = doc["ab"]["point_queries"]["peak_rss_mb"]
    assert rss["wins"] == {"change": 10, "parent": 0, "tie": 0}
    assert rss["gain"] and rss["within_bound"] and not rss["spread_exceeds_bound"]
    assert rss["parent_median"] - rss["change_median"] == pytest.approx(1.2)
    wall = doc["ab"]["point_queries"]["wall_s"]
    assert wall["wins"]["tie"] == 10 and not wall["gain"] and wall["within_bound"]
    # The per-pair ratios change/parent, reported beside the verdicts.
    ratios = [(69.3 + 0.01 * seed - 1.2) / (69.3 + 0.01 * seed) for seed in range(10)]
    assert rss["ratio_median"] == pytest.approx(statistics.median(ratios))
    assert rss["ratio_quartiles"] == pytest.approx(bench.quartiles(ratios))
    assert rss["ratio_quartiles"][0] < rss["ratio_median"] < rss["ratio_quartiles"][1] < 1.0
    assert (wall["ratio_median"], wall["ratio_quartiles"]) == (1.0, [1.0, 1.0])
    line = [x for x in bench.summary(doc["ab"]) if "peak_rss_mb" in x]
    assert len(line) == 1 and f"ratio {rss['ratio_median']:.4g} [{rss['ratio_quartiles'][0]:.4g}, " in line[0]
    # The traced pair's per-layer metrics, side by side; the untraced runs have none.
    trace = doc["trace"]["point_queries"]
    assert list(trace) == ["trace.wall_s", "sweep.cells", "sweep.write_csv_pct", "qelectric.cache_hits"]
    assert trace["sweep.write_csv_pct"] == {"unit": "%", "better": "lower", "parent": 40.0, "change": 41.0}
    assert trace["qelectric.cache_hits"] == {"unit": "count", "better": "higher", "parent": 0, "change": 0}


def test_gain_needs_nine_pairs_in_ten():
    doc = ab_document()
    for run in doc["runs"][:4]:  # the change loses the first two pairs
        if run["side"] == "parent":
            result = json.loads(run["result"])
            result["metrics"]["peak_rss_mb"]["value"] -= 2.0
            run["result"] = json.dumps(result)
    rss = bench.compare(doc["runs"], END_TO_END)["point_queries"]["peak_rss_mb"]
    assert rss["wins"]["change"] == 8 and not rss["gain"]


def test_gain_needs_ten_pairs():
    doc = ab_document(pairs=3)
    rss = doc["ab"]["point_queries"]["peak_rss_mb"]
    assert rss["wins"]["change"] == 3 and not rss["gain"]
    rss["gain"] = True  # a gain claimed on three pairs
    with pytest.raises(ValueError):
        bench.check_document(doc)


def test_wide_spread_is_unresolved_unless_the_sides_are_apart():
    # The parent's peak_rss_mb spreads 60..87 MB, an IQR far above its 0.1 bound.
    def rss(side, seed):
        return 60.0 + 3 * seed if side == "parent" else 50.0 + 0.1 * seed
    apart = bench.compare(ab_document(rss=rss)["runs"], END_TO_END)
    assert not apart["point_queries"]["peak_rss_mb"]["spread_exceeds_bound"]
    overlap = bench.compare(ab_document(rss=lambda side, seed: 70.0 if (side, seed) == ("change", 9)
                                        else rss(side, seed))["runs"], END_TO_END)
    assert overlap["point_queries"]["peak_rss_mb"]["spread_exceeds_bound"]
    line = [x for x in bench.summary(overlap) if "peak_rss_mb" in x]
    assert len(line) == 1 and line[0].endswith("unresolved") and "within bound" not in line[0]


def test_ratios_skip_a_zero_parent():
    table = bench.compare(ab_document(rss=lambda side, seed: 0.0 if side == "parent" else 1.0)["runs"],
                          END_TO_END)
    rss = table["point_queries"]["peak_rss_mb"]
    assert rss["ratio_median"] is None and rss["ratio_quartiles"] is None
    assert "ratio none" in [x for x in bench.summary(table) if "peak_rss_mb" in x][0]


def test_document_written_before_the_ratios_passes():
    # BENCH files written before the paired ratios hold compare's table without
    # them; a table that lacks them in one entry only is damaged.
    doc = ab_document()
    for by_metric in doc["ab"].values():
        for s in by_metric.values():
            for key in bench.RATIO_KEYS:
                del s[key]
    bench.check_document(doc)
    doc = ab_document()
    del doc["ab"]["point_queries"]["wall_s"]["ratio_median"]
    with pytest.raises(ValueError):
        bench.check_document(doc)


def test_record_document_from_stored_lines(tmp_path):
    run = dict(stored_run("tree", 5, 67.9), trace=1)
    doc = {"schema": bench.SCHEMA, "mode": "record", "commit": COMMIT, "dirty": True, "seconds": 40,
           "seeds": [5], "runs": [dict(run, trace=0), run]}
    assert pathlib.Path(bench.write_document(str(tmp_path), doc)).name == "BENCH_1.json"
    assert pathlib.Path(bench.write_document(str(tmp_path), doc)).name == "BENCH_2.json"
    bench.check_document(json.loads((tmp_path / "BENCH_2.json").read_text()))


@pytest.mark.parametrize("damage", [
    lambda d: d.update(schema=2),
    lambda d: d.update(commit="f07a5b0"),
    lambda d: d.update(seeds=[0]),
    lambda d: d["runs"][0].update(seed=99),
    lambda d: d["runs"][0].pop("env"),
    lambda d: d["runs"][1].update(side="tree"),
    lambda d: d["ab"]["point_queries"]["peak_rss_mb"].update(change_median=60.0),
    lambda d: d["runs"].pop(),
    lambda d: d["runs"][0].update(env='{"environment": {}}'),
    lambda d: d["trace"]["point_queries"]["sweep.cells"].update(change=1),
    lambda d: d.pop("trace"),
    lambda d: d["runs"].pop(0),
    lambda d: d["runs"][-1].update(seed=0, env=d["runs"][0]["env"]),
    lambda d: d["ab"]["point_queries"]["peak_rss_mb"].update(ratio_median=0.5),
    lambda d: d["ab"]["point_queries"]["peak_rss_mb"]["ratio_quartiles"].reverse(),
])
def test_damaged_document_rejected(damage):
    doc = copy.deepcopy(ab_document())
    damage(doc)
    with pytest.raises(ValueError):
        bench.check_document(doc)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_parent_checkout_holds_the_parents_src(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "m.py").write_text("OLD = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    commit = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "commit", "-qm", "p"]
    for cmd in (["init", "-q"], ["add", "."], commit):
        subprocess.run(["git", *cmd], cwd=tmp_path, check=True)
    (tmp_path / "src" / "m.py").write_text("NEW = 1\n")
    for side, parent, text in (("parent", "HEAD", "OLD = 1\n"), ("change", None, "NEW = 1\n")):
        checkout = pathlib.Path(bench.prepare_checkout(str(tmp_path), side, parent))
        assert (checkout / "src" / "m.py").read_text() == text
        assert (checkout / "perfbench" / "run.py").exists() and (checkout / "BENCHMARK.json").exists()


def test_committed_bench_files_pass():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench.check_document(json.loads(path.read_text()))
