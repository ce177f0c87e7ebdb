"""Spans and counts recorded around calls into the program's public functions.

The tracer replaces module attributes with thin wrappers, so every call that
goes through the attribute (including calls between the program's own
modules, which look names up in their module globals) is recorded.  A span
is (name, start, end, parent); spans are kept in flat arrays in memory and
reduced to per-layer totals when the repetition ends.  Self time is a
span's duration minus the durations of its direct child spans.

Only the traced repetitions install these wrappers; the untimed bookkeeping
of the untraced repetitions never touches the program's modules beyond
capturing the grids that ``run_sweep`` returns.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper recording one span per call of fn; on_result(result, args)."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        out = {name: (0, 0.0, 0.0) for name in self.names}
        if n == 0:
            return out
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = (int(calls[i]), float(incl[i]), float(excl[i]))
        return out


def install(tracer: Tracer, program) -> None:
    """Wrap the public functions of the program's modules.

    ``program`` is a namespace with the modules cli, sweep, cycle, units,
    qmagnetic, qelectric, classical, specfun and selftest.
    """
    cli, sweep, cycle = program.cli, program.sweep, program.cycle
    units, qmag, qel = program.units, program.qmagnetic, program.qelectric
    classical, specfun, selftest = program.classical, program.specfun, program.selftest

    def grid_done(grid, _args):
        tracer.count("sweep.cells", grid.spec.lambda_h_range[2] * grid.spec.tau_h_range[2])

    def boundaries_done(result, _args):
        tracer.count("sweep.boundary_vertices", sum(len(line) for lines in result for line in lines))

    def file_written(_result, args):
        tracer.count("sweep.output_bytes", os.path.getsize(args[1]))

    def stats_done(stats, _args):
        tracer.count("qmagnetic.window_terms", stats.terms_used)

    def eigensolve_done(spec, _args):
        tracer.count("qelectric.basis_states", len(spec.eigenvalues))
        tracer.counts["qelectric.max_cutoff"] = max(
            tracer.counts.get("qelectric.max_cutoff", 0), spec.cutoff_m
        )

    cli.main = tracer.wrap("cli.main", cli.main)
    sweep.run_sweep = tracer.wrap("sweep.run_sweep", sweep.run_sweep, grid_done)
    sweep.evaluate_point = tracer.wrap("sweep.evaluate_point", sweep.evaluate_point)
    sweep.extract_boundaries = tracer.wrap(
        "sweep.extract_boundaries", sweep.extract_boundaries, boundaries_done
    )
    sweep.write_csv = tracer.wrap("sweep.write_csv", sweep.write_csv, file_written)
    sweep.write_json = tracer.wrap("sweep.write_json", sweep.write_json, file_written)
    sweep.momentum_curve = tracer.wrap("sweep.momentum_curve", sweep.momentum_curve)
    # sweep imported assemble_cycle by name; both references get the wrapper.
    sweep.assemble_cycle = cycle.assemble_cycle = tracer.wrap(
        "cycle.assemble_cycle", cycle.assemble_cycle
    )
    qmag.momentum_stats = tracer.wrap("qmagnetic.momentum_stats", qmag.momentum_stats, stats_done)
    qmag.optimal_work_scan = tracer.wrap("qmagnetic.optimal_work_scan", qmag.optimal_work_scan)
    qel.pendulum_stroke_averages = tracer.wrap(
        "qelectric.pendulum_stroke_averages", qel.pendulum_stroke_averages
    )
    qel.eigensolve_sym_tridiagonal = tracer.wrap(
        "qelectric.eigensolve_sym_tridiagonal", qel.eigensolve_sym_tridiagonal, eigensolve_done
    )
    classical.classical_cycle_electric = tracer.wrap(
        "classical.classical_cycle_electric", classical.classical_cycle_electric
    )
    # classical imported bessel_ratio_i1_i0 by name; both references get the wrapper.
    classical.bessel_ratio_i1_i0 = specfun.bessel_ratio_i1_i0 = tracer.wrap(
        "specfun.bessel_ratio_i1_i0", specfun.bessel_ratio_i1_i0
    )
    selftest.run_selftest = tracer.wrap("selftest.run_selftest", selftest.run_selftest)

    post_init = units.CyclePoint.__post_init__

    def counted_post_init(self):
        tracer.count("units.cycle_points")
        post_init(self)

    units.CyclePoint.__post_init__ = counted_post_init


def layer_metrics(tracer: Tracer, cache_hits: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by the names BENCHMARK.json lists.

    Layers that only some workloads call are given as their share of the
    repetition's wall time, in percent, which is 0 where a workload does not
    call them; seconds are kept for the layers that every workload calls.
    """
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def pct(seconds):
        return 100.0 * seconds / wall_s

    c = tracer.counts
    stroke_calls = calls("qelectric.pendulum_stroke_averages")
    return {
        "trace.wall_s": wall_s,
        "cli.self_pct": pct(own("cli.main")),
        "sweep.run_sweep_pct": pct(incl("sweep.run_sweep")),
        "sweep.run_sweep_self_pct": pct(own("sweep.run_sweep")),
        "sweep.cells": c.get("sweep.cells", 0),
        "sweep.extract_boundaries_pct": pct(incl("sweep.extract_boundaries")),
        "sweep.boundary_vertices": c.get("sweep.boundary_vertices", 0),
        "sweep.write_csv_pct": pct(incl("sweep.write_csv")),
        "sweep.write_json_pct": pct(incl("sweep.write_json")),
        "sweep.output_bytes": c.get("sweep.output_bytes", 0),
        "sweep.evaluate_point_s": incl("sweep.evaluate_point"),
        "sweep.evaluate_point_calls": calls("sweep.evaluate_point"),
        "sweep.momentum_curve_pct": pct(incl("sweep.momentum_curve")),
        "qmagnetic.optimal_work_scan_pct": pct(incl("qmagnetic.optimal_work_scan")),
        "selftest.run_pct": pct(incl("selftest.run_selftest")),
        "units.cycle_points": c.get("units.cycle_points", 0),
        "cycle.assemble_s": incl("cycle.assemble_cycle"),
        "cycle.assemble_calls": calls("cycle.assemble_cycle"),
        "qmagnetic.momentum_stats_pct": pct(incl("qmagnetic.momentum_stats")),
        "qmagnetic.momentum_stats_calls": calls("qmagnetic.momentum_stats"),
        "qmagnetic.window_terms": c.get("qmagnetic.window_terms", 0),
        "qelectric.stroke_averages_pct": pct(incl("qelectric.pendulum_stroke_averages")),
        "qelectric.stroke_averages_calls": stroke_calls,
        "qelectric.cache_hits": cache_hits,
        "qelectric.cache_hit_ratio": cache_hits / stroke_calls if stroke_calls else 0.0,
        "qelectric.eigensolves": calls("qelectric.eigensolve_sym_tridiagonal"),
        "qelectric.eigensolve_pct": pct(incl("qelectric.eigensolve_sym_tridiagonal")),
        "qelectric.basis_states": c.get("qelectric.basis_states", 0),
        "qelectric.max_cutoff": c.get("qelectric.max_cutoff", 0),
        "classical.cycle_electric_pct": pct(incl("classical.classical_cycle_electric")),
        "specfun.bessel_ratio_pct": pct(incl("specfun.bessel_ratio_i1_i0")),
        "specfun.bessel_ratio_calls": calls("specfun.bessel_ratio_i1_i0"),
    }
