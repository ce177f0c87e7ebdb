import math
import weakref

import numpy as np
import pytest

from rotor_otto import qelectric
from rotor_otto.qelectric import (
    eigensolve_sym_tridiagonal,
    pendulum_column_averages,
    pendulum_stroke_averages,
)
from rotor_otto.selftest import (
    build_pendulum_hamiltonian,
    classical_electric_mean_energy_quadrature,
    dense_pendulum_eigenvalues,
    log_partition_pendulum,
)
from rotor_otto.sweep import SweepSpec, evaluate_point, run_sweep
from rotor_otto.units import ConvergenceError, CyclePoint, DomainError

from oracles import dense_heats_electric
from test_cli import fresh_interpreter


class TestHamiltonianBuilder:
    def test_free_rotor(self):
        diag, offdiag = build_pendulum_hamiltonian(0.0, 2)
        assert np.allclose(diag, [2.0, 0.5, 0.0, 0.5, 2.0])
        assert np.allclose(offdiag, [0.0, 0.0, 0.0, 0.0])

    def test_unit_coupling(self):
        diag, offdiag = build_pendulum_hamiltonian(1.0, 1)
        assert np.allclose(diag, [1.0, 0.5, 1.0])
        assert np.allclose(offdiag, [-0.25, -0.25])

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            build_pendulum_hamiltonian(-1.0, 4)


class TestEigensolver:
    def test_two_by_two_closed_form(self):
        a, b, c = 1.3, -0.4, 0.7
        spec = eigensolve_sym_tridiagonal(np.array([a, b]), np.array([c]), 1)
        disc = math.sqrt((a - b) ** 2 / 4 + c * c)
        assert spec.eigenvalues[0] == pytest.approx((a + b) / 2 - disc, abs=1e-14)
        assert spec.eigenvalues[1] == pytest.approx((a + b) / 2 + disc, abs=1e-14)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(DomainError):
            eigensolve_sym_tridiagonal(np.array([1.0, np.nan, 2.0]), np.array([0.1, 0.2]), 1)

    def test_free_rotor_degeneracies(self):
        spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(0.0, 3), 3)
        assert np.allclose(spec.eigenvalues, [0.0, 0.5, 0.5, 2.0, 2.0, 4.5, 4.5])

    def test_dense_oracle(self):
        spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(1.0, 60), 60)
        dense = dense_pendulum_eigenvalues(1.0, 60)
        assert abs(spec.eigenvalues[0] - dense[0]) < 1e-10

    def test_dense_oracle_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lam = rng.uniform(0.0, 20.0)
            cutoff = int(rng.integers(4, 48))
            spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, cutoff), cutoff)
            dense = dense_pendulum_eigenvalues(lam, cutoff)
            assert np.abs(spec.eigenvalues - dense).max() < 1e-10

    def test_eigenvector_orthonormality(self):
        v = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(2.0, 30), 30).eigenvectors
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-10

    def test_sorted_within_tolerance(self):
        spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(3.0, 40), 40)
        diffs = np.diff(spec.eigenvalues)
        assert (diffs > -1e-12).all()

    def test_variational_monotonicity_in_cutoff(self):
        for lam in (1.0, 4.0):
            small = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, 16), 16).eigenvalues
            large = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, 32), 32).eigenvalues
            assert (small >= large[: len(small)] - 1e-12).all()

    def test_harmonic_ladder_spacing(self):
        # lambda >> 1: bottom of the spectrum looks like a harmonic
        # oscillator with level spacing sqrt(lambda/2)
        spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(400.0, 64), 64)
        gap = spec.eigenvalues[1] - spec.eigenvalues[0]
        assert gap == pytest.approx(math.sqrt(200.0), rel=0.01)


class TestLapackLoader:
    """The pendulum's dstevd comes from scipy.linalg._flapack, loaded without the scipy.linalg package.

    Each case runs in a fresh interpreter, where no scipy module is loaded
    yet: a scipy that renames or moves the extension fails here.
    """

    def test_bit_identical_to_scipy_linalg_lapack(self):
        assert fresh_interpreter(
            "import sys\n"
            "import numpy as np\n"
            "from rotor_otto import qelectric\n"
            "solved = []\n"
            "for lam, cutoff in [(0.0, 3), (5.0, 32), (862.0, 64), (1.0, 128)]:\n"
            "    for block in qelectric._parity_blocks(lam, cutoff):\n"
            "        spectrum = qelectric.eigensolve_sym_tridiagonal(*block, cutoff)\n"
            "        solved.append((block, spectrum.eigenvalues, spectrum.eigenvectors))\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import scipy.linalg.lapack\n"
            "print(scipy.linalg.lapack.dstevd is qelectric._flapack().dstevd,\n"
            "      sys.modules['scipy.linalg._flapack'].dstevd is qelectric._flapack().dstevd)\n"
            "for block, vals, vecs in solved:\n"
            "    ref_vals, ref_vecs, info = scipy.linalg.lapack.dstevd(*block)\n"
            "    print(info == 0 and np.array_equal(vals.view(np.int64), ref_vals.view(np.int64))\n"
            "          and np.array_equal(vecs.view(np.int64), ref_vecs.view(np.int64)))\n"
        ) == ["False", "True", "True"] + ["True"] * 8

    def test_scipy_linalg_binds_its_flapack_after_a_solve(self):
        # The loaded extension is not left in sys.modules, where a later
        # `import scipy.linalg` would reuse it without binding the attribute.
        assert fresh_interpreter(
            "import sys\n"
            "import numpy as np\n"
            "from rotor_otto import qelectric\n"
            "qelectric.pendulum_stroke_averages(1.0, 1.0)\n"
            "print('scipy.linalg._flapack' in sys.modules)\n"
            "import scipy.linalg\n"
            "print(scipy.linalg._flapack.dstevd is scipy.linalg.lapack.dstevd is qelectric._flapack().dstevd)\n"
            "vals = scipy.linalg.eigh_tridiagonal(np.array([1.0, 2.0]), np.array([0.5]), eigvals_only=True)\n"
            "print(np.allclose(vals, 1.5 + np.array([-0.5, 0.5]) * np.sqrt(2.0)))\n"
        ) == ["False", "True", "True"]

    def test_reuses_the_module_of_an_imported_scipy_linalg(self, tmp_path):
        # With scipy.__file__ pointing at an empty directory, only the module
        # already in sys.modules can serve the solve.
        assert fresh_interpreter(
            "import os, sys\n"
            "import numpy as np\n"
            "import scipy.linalg\n"
            "from rotor_otto import qelectric\n"
            f"scipy.__file__ = os.path.join({str(tmp_path)!r}, '__init__.py')\n"
            "qelectric.eigensolve_sym_tridiagonal(np.array([1.0, 2.0]), np.array([0.5]), 1)\n"
            "print(qelectric._flapack() is sys.modules['scipy.linalg._flapack'] is scipy.linalg.lapack._flapack)\n"
        ) == ["True"]

    def test_missing_extension_raises_import_error_naming_the_directory(self, tmp_path):
        assert fresh_interpreter(
            "import os, sys\n"
            "import numpy as np\n"
            "import scipy\n"
            "from rotor_otto import qelectric\n"
            f"scipy.__file__ = os.path.join({str(tmp_path)!r}, '__init__.py')\n"
            "try:\n"
            "    qelectric.eigensolve_sym_tridiagonal(np.array([1.0, 2.0]), np.array([0.5]), 1)\n"
            "except ImportError as exc:\n"
            f"    print(os.path.join({str(tmp_path)!r}, 'linalg') in str(exc))\n"
            "print('scipy.linalg._flapack' in sys.modules)\n"
        ) == ["True", "False"]


class TestStrokeAverages:
    def test_potential_average_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            _, s_avg, _ = pendulum_stroke_averages(rng.uniform(0.0, 10.0), rng.uniform(0.05, 5.0))
            assert 0.0 <= s_avg <= 1.0

    def test_ground_state_clamp(self):
        lam = 2.0
        e_avg, _, _ = pendulum_stroke_averages(lam, 1e-8)
        ground = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, 64), 64).eigenvalues[0]
        assert e_avg == pytest.approx(ground, abs=1e-10)

    def test_hellmann_feynman_cross_oracle(self):
        lam, tau, step = 1.5, 0.8, 1e-4
        _, s_avg, cutoff = pendulum_stroke_averages(lam, tau)
        fd = -tau * (
            log_partition_pendulum(lam + step, tau, cutoff)
            - log_partition_pendulum(lam - step, tau, cutoff)
        ) / (2 * step)
        assert s_avg == pytest.approx(fd, abs=1e-6)

    def test_cold_stroke_cache_is_bounded(self):
        # A kernel call solves one cold stroke, so the cache keeps a few, not
        # every distinct stroke a batch of evaluate_point calls makes.
        bound = pendulum_stroke_averages.cache_info().maxsize
        assert 0 < bound <= 64
        pendulum_stroke_averages.cache_clear()
        for k in range(bound + 8):
            pendulum_stroke_averages(0.5, 1.0 + k / 64)
        assert pendulum_stroke_averages.cache_info().currsize == bound

    def test_round_off_stops_the_doubling(self):
        # At lambda_h ~ 862 the round-off of <H> is 5.9e-12 at M = 64, where
        # the error bounds are 3e-24: the stroke certifies there, and the
        # averages at M = 128 agree with it to that round-off.
        p = CyclePoint(861.8547639571464, 0.011012854772924286, 12.348369624337156, 1.8480060611326552)
        e_h, s_h, cutoff = pendulum_stroke_averages(p.lambda_h, p.tau_h)
        assert cutoff == 64
        bound = 8.0 * np.finfo(float).eps * (0.5 * 64**2 + 1.5 * p.lambda_h)
        (e_128,), (s_128,) = qelectric._column_at(p.lambda_h, np.array([p.tau_h]), 128)[0]
        assert abs(e_h - e_128) <= bound and abs(s_h - s_128) <= bound
        e_c = pendulum_stroke_averages(p.lambda_c, p.tau_c)[0]
        r = evaluate_point("electric", "quantum", p)
        dense = dense_heats_electric(p.lambda_h, p.lambda_c, p.tau_h, p.tau_c)
        names = ("<H>_h", "<H>_c", "q_c", "q_h", "w")
        for name, got, value in zip(names, (e_h, e_c, r.q_c, r.q_h, r.w), dense):
            assert abs(got - value) < 1e-10, name


def _parity_block_levels(lam, cutoff):
    """(energies, <n|S|n>, |v_n[M]|) of the even block (m = 0..cutoff), then the odd block (m = 1..cutoff)."""
    energies, s_diag, last = [], [], []
    for block, c0 in zip(qelectric._parity_blocks(lam, cutoff), (math.sqrt(2.0), 1.0)):
        spec = eigensolve_sym_tridiagonal(*block, cutoff)
        v = spec.eigenvectors
        energies.append(spec.eigenvalues)
        s_diag.append(np.einsum("kn,kn->n", v[:-1, :], v[1:, :]) + (c0 - 1.0) * v[0] * v[1])
        last.append(np.abs(v[-1]))
    return np.concatenate(energies), 0.5 - 0.5 * np.concatenate(s_diag), np.concatenate(last)


def _per_tau_reference(lam, tau):
    """(<H>, <S>, cutoff) for this tau alone, certified term by term.

    Walks the cutoffs 32, 64, ... and stops at the first where the weighted
    residual sum_n w_n (lambda/4)|v_n[M]| plus the free-rotor tail, summed
    over |m| > M term by term instead of the closed form, is below the
    round-off 8 eps (M^2/2 + 3 lambda/2) for both averages.
    """
    cutoff = 32
    while cutoff <= 1 << 15:
        energies, s_diag, last = _parity_block_levels(lam, cutoff)
        t = max(tau, 1e-6)
        w = np.exp(-(energies - energies[0]) / t)
        if tau < 1e-6:
            w[1:] = 0.0
        w = w / w.sum()
        residual = w @ (0.25 * lam * last)
        m = np.arange(cutoff + 1, cutoff + 2 + int(math.sqrt(2.0 * (abs(energies[0]) + 800.0 * t))), dtype=float)
        terms = 2.0 * np.exp(-(0.5 * m * m - energies[0]) / t)
        bound = 8.0 * np.finfo(float).eps * (0.5 * cutoff * cutoff + 1.5 * lam)
        if residual + terms.sum() < bound and residual + terms @ (0.5 * m * m) < bound:
            return float(w @ energies), float(w @ s_diag), cutoff
        cutoff *= 2
    raise AssertionError("reference did not converge")


def _full_matrix_column(lam, taus, cutoff):
    """(<H>, <S>) rows at each tau from the full (2M + 1) matrix at cutoff M."""
    spec = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, cutoff), cutoff)
    energies, v = spec.eigenvalues, spec.eigenvectors
    s_diag = 0.5 - 0.5 * np.einsum("kn,kn->n", v[:-1, :], v[1:, :])
    rows = []
    for tau in taus:
        w = np.exp(-(energies - energies[0]) / max(tau, 1e-6))
        if tau < 1e-6:
            w[1:] = 0.0
        w = w / w.sum()
        rows.append((w @ energies, w @ s_diag))
    return np.array(rows).T


# Straddles the ground-state shortcut at tau = 1e-6 and reaches the
# classical regime, so one column certifies at several cutoffs.
_COLUMN_TAUS = [1e-9, 5e-7, 9.99e-7, 1e-6, 1.001e-6, 1e-4, 0.05, 0.7, 5.0, 40.0, 300.0]


class TestColumnAverages:
    @pytest.mark.parametrize("lam", [0.0, 2.0, 37.5, 861.8547639571464])
    def test_column_equals_per_tau_evaluation(self, lam):
        e_avg, s_avg, cutoff = pendulum_column_averages(lam, _COLUMN_TAUS)
        assert len(set(cutoff.tolist())) > 1
        for k, tau in enumerate(_COLUMN_TAUS):
            single = pendulum_stroke_averages(lam, tau)
            assert (e_avg[k], s_avg[k], cutoff[k]) == single
            e_ref, s_ref, cutoff_ref = _per_tau_reference(lam, tau)
            assert cutoff[k] == cutoff_ref
            bound = 8.0 * np.finfo(float).eps * (0.5 * cutoff_ref**2 + 1.5 * lam)
            assert abs(e_avg[k] - e_ref) <= bound and abs(s_avg[k] - s_ref) <= bound

    @pytest.mark.parametrize("lam", [0.0, 2.0, 37.5, 861.8547639571464])
    @pytest.mark.parametrize("cutoff", [32, 64, 128, 256])
    def test_parity_blocks_equal_full_matrix(self, lam, cutoff):
        # The blocks are an exact change of basis; they differ from the full
        # matrix by round-off, bounded as in the certificate.
        taus = np.array(_COLUMN_TAUS)
        got, _ = qelectric._column_at(lam, taus, cutoff)
        full = _full_matrix_column(lam, taus, cutoff)
        bound = 8.0 * np.finfo(float).eps * (0.5 * cutoff * cutoff + 1.5 * lam)
        assert np.abs(got - full).max() <= bound

    @pytest.mark.parametrize("lam", [0.5, 2.0, 20.0, 200.0])
    def test_parity_blocks_are_mathieu_families(self, lam):
        # H = L_z^2/2 + lambda sin^2(alpha/2) with alpha = 2z is Mathieu's
        # equation at q = 2 lambda, a = 8E - 4 lambda (DLMF 28.2): the even
        # block holds a_2n, the odd block b_2n+2.
        from scipy.special import mathieu_a, mathieu_b

        even, odd = (eigensolve_sym_tridiagonal(*block, 64) for block in qelectric._parity_blocks(lam, 64))
        n = np.arange(5)
        assert np.abs(even.eigenvalues[:5] - (mathieu_a(2 * n, 2 * lam) + 4 * lam) / 8).max() < 1e-12
        assert np.abs(odd.eigenvalues[:5] - (mathieu_b(2 * n + 2, 2 * lam) + 4 * lam) / 8).max() < 1e-12

    @pytest.mark.parametrize("lam", [0.0, 2.0, 861.8547639571464])
    def test_continuous_across_ground_state_shortcut(self, lam):
        e_avg, s_avg, _ = pendulum_column_averages(lam, _COLUMN_TAUS)
        below, at, above = _COLUMN_TAUS.index(9.99e-7), _COLUMN_TAUS.index(1e-6), _COLUMN_TAUS.index(1.001e-6)
        for avg in (e_avg, s_avg):
            assert abs(avg[at] - avg[below]) <= 1e-12
            assert abs(avg[above] - avg[at]) <= 1e-12
        ground = eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, 64), 64).eigenvalues[0]
        assert e_avg[below] == pytest.approx(ground, abs=1e-10)

    def test_tail_bound_guards_what_the_residual_misses(self):
        # At lambda = 1, tau = 5000 the weighted residual is 1.2e-14 at
        # M = 512, yet the levels above that cutoff still hold 5.7e-8 of <H>;
        # the free-rotor tail bound (1.0e-5 there) must push the cutoff on.
        e_avg, s_avg, _ = pendulum_column_averages(1.0, [5000.0])
        (e_ref,), (s_ref,) = qelectric._column_at(1.0, np.array([5000.0]), 2048)[0]
        assert abs(e_avg[0] - e_ref) < 1e-10
        assert abs(s_avg[0] - s_ref) < 1e-10

    def test_unconverged_column_names_lambda_and_first_open_tau(self, monkeypatch):
        # Cap the cutoff ladder below the cutoff the warm taus need.
        monkeypatch.setattr(qelectric, "_MAX_CUTOFF", 32)
        with pytest.raises(ConvergenceError, match=r"lambda=2\.0, tau=40\.0 up to M=32"):
            pendulum_column_averages(2.0, [0.05, 40.0, 300.0])

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            pendulum_column_averages(-1.0, [1.0])
        with pytest.raises(DomainError):
            pendulum_column_averages(1.0, [1.0, 0.0])

    def test_parity_blocks_are_solved_one_at_a_time(self, monkeypatch):
        # A block's eigenvectors are reduced and dropped before the other
        # block is solved, so one stroke holds one block's vectors at a time.
        vectors, live_at_solve = [], []

        def spying(diag, offdiag, cutoff_m):
            live_at_solve.append(sum(ref() is not None for ref in vectors))
            spectrum = eigensolve_sym_tridiagonal(diag, offdiag, cutoff_m)
            vectors.append(weakref.ref(spectrum.eigenvectors))
            return spectrum

        monkeypatch.setattr(qelectric, "eigensolve_sym_tridiagonal", spying)
        pendulum_column_averages(2.0, [0.5, 4.0])
        assert len(live_at_solve) >= 2
        assert live_at_solve == [0] * len(live_at_solve)

    def test_sweep_eigensolves_do_not_grow_with_n_tau(self, monkeypatch):
        # One spectrum (two parity-block solves) per lambda_h column and
        # cutoff: a 5 x 200 sweep makes at most 8 eigensolves per column, hot
        # and cold strokes included, where doubling each cell on its own
        # takes at least four per cell.
        calls = []

        def counting(diag, offdiag, cutoff_m):
            calls.append(cutoff_m)
            return eigensolve_sym_tridiagonal(diag, offdiag, cutoff_m)

        monkeypatch.setattr(qelectric, "eigensolve_sym_tridiagonal", counting)
        pendulum_stroke_averages.cache_clear()
        spec = SweepSpec((1.0, 20.0, 5), (1.0, 10.0, 200), 1.0, 1.0, "electric", "quantum")
        run_sweep(spec)
        assert 0 < len(calls) <= 8 * 5

    def test_cold_stroke_solved_once_per_sweep(self, monkeypatch):
        # One call for the whole grid, at the cold stroke's (lambda, tau).
        calls = []

        def counting(lam, tau):
            calls.append((lam, tau))
            return pendulum_stroke_averages(lam, tau)

        monkeypatch.setattr(qelectric, "pendulum_stroke_averages", counting)
        spec = SweepSpec((1.0, 20.0, 5), (1.0, 10.0, 3), 1.0, 0.5, "electric", "quantum")
        run_sweep(spec)
        assert calls == [(1.0, 0.5)]


class TestThermalQuartet:
    def test_degenerate_cycle(self):
        p = CyclePoint(1.0, 1.0, 2.0, 2.0)
        r = evaluate_point("electric", "quantum", p)
        assert r.w == pytest.approx(0.0, abs=1e-12)
        assert r.q_c == pytest.approx(0.0, abs=1e-12)
        assert r.q_h == pytest.approx(0.0, abs=1e-12)

    def test_correspondence_limit(self):
        e_avg = pendulum_stroke_averages(1.0, 10.0)[0]
        classical = classical_electric_mean_energy_quadrature(1.0, 1.0, 10.0)
        assert e_avg == pytest.approx(classical, rel=0.02)

    def test_first_law(self):
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        r = evaluate_point("electric", "quantum", p)
        assert abs(r.q_c + r.q_h + r.w) < 1e-10

    def test_quantum_engine_below_classical(self):
        # one cell of the systematic-disadvantage comparison
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        w_quantum = evaluate_point("electric", "quantum", p).w
        w_classical = evaluate_point("electric", "classical", p).w
        assert -w_quantum <= -w_classical + 1e-9
