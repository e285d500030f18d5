"""Unit tests for the orbit-orthonormality solver."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity.linalg import UNITARY_ATOL, Ket, Operator, hadamard, omega, pauli_x, pauli_z
from qparity.solver import (
    ORBIT_ATOL,
    EigenphaseSpec,
    admissible_state,
    classify_eigenphases,
    orbit_deviation,
    reconstruct_general,
    roots_of_unity_spec,
    solve_amplitudes,
)
from qparity.module import CouplingKind, ModuleConfig
from qparity.verify import _lp_weights

from conftest import check_orbit, drive

TWO_PI = 2.0 * math.pi


def clock_eigenvalues(d):
    """w^k for k = 0 .. d-1: the eigenvalues of Z_d on |k> and of X_d on |u_k>."""
    return omega(d) ** np.arange(d)


def eigenvalues(spec):
    return np.exp(1j * np.array(spec.phases))


class TestOrbitDeviation:
    def test_clock_orbit_of_uniform_state_is_orthonormal(self):
        d = 4
        assert orbit_deviation(clock_eigenvalues(d), np.full(d, d**-0.5, dtype=complex), d) < 1e-12

    def test_near_identity_drive_overlaps_heavily(self):
        # diag(1, e^{0.1i}) moves the seed by a tiny rotation, so
        # |<phi|D phi>| >= cos(0.05) no matter how the weight is split.
        phi = np.array([1.0, 1.0]) / math.sqrt(2)
        assert orbit_deviation(eigenvalues(EigenphaseSpec((0.0, 0.1))), phi, 2) >= math.cos(0.05) - 1e-12

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            orbit_deviation(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 2)

    def test_unnormalized_seed_deviates_by_its_squared_norm(self):
        # G_00 is the seed's squared norm: [1, 1] misses 1 by 1, and its Z_2 orbit is orthogonal.
        assert orbit_deviation(clock_eigenvalues(2), np.array([1.0, 1.0]), 2) == 1.0

    def test_reads_a_dense_orbit_from_its_eigenbasis(self):
        # U = V D V*: U^k phi = V D^k (V* phi), so the orbit's Gram matrix is that of V* phi under D.
        phi = Ket(np.array([0.6, 0.8j]), (2,), normalized=True)
        _, v, spec = reconstruct_general(hadamard())
        dense = check_orbit(hadamard(), phi, 2).max_deviation
        assert orbit_deviation(eigenvalues(spec), v.entries.conj().T @ phi.amps, 2) == pytest.approx(dense, abs=1e-12)

    def test_nan_fails_closed(self):
        # NaN compares False against every tolerance, so each guard must be written to fail on it.
        phi = np.array([1.0, 1.0]) / math.sqrt(2)
        assert not orbit_deviation(clock_eigenvalues(2), np.array([np.nan, 1.0]), 2) <= ORBIT_ATOL
        with pytest.raises(ValueError, match="not unitary"):
            orbit_deviation(np.array([np.nan, 1.0]), phi, 2)
        with pytest.raises(ValueError, match="not unitary"):
            reconstruct_general(Operator(np.diag([np.nan, 1.0])))

    def test_builds_no_operator(self, monkeypatch):
        # The drive is read from its eigenvalues alone; no d x d Operator is built or checked.
        monkeypatch.setattr(Operator, "__post_init__", lambda op: pytest.fail("built an Operator"))
        assert orbit_deviation(clock_eigenvalues(3), np.full(3, 3**-0.5, dtype=complex), 3) <= ORBIT_ATOL

    def test_rejects_bad_orbit_length(self):
        phi = np.array([1.0, 0.0])
        for orbit_len in (0, 3):
            with pytest.raises(ValueError, match="orbit length"):
                orbit_deviation(clock_eigenvalues(2), phi, orbit_len)

    @pytest.mark.parametrize(
        "spec",
        [roots_of_unity_spec(d, 0.3 * d) for d in (2, 3, 5, 8, 64)]
        + [EigenphaseSpec((0.0, 0.0, math.pi, math.pi)), EigenphaseSpec((0.3, 0.3, 0.3, 0.3 + TWO_PI / 3, 0.3 - TWO_PI / 3))],
        ids=["roots2", "roots3", "roots5", "roots8", "roots64", "pairs", "triple"],
    )
    def test_matches_the_dense_orbit(self, rng, spec):
        # The Toeplitz first row holds every Gram entry; it reads what the dense d x d
        # drive's orbit reads, to rounding, for feasible and infeasible seeds alike.
        s = classify_eigenphases(spec).s
        seeds = [admissible_state(spec, tuple(rng.uniform(0, TWO_PI, size=spec.d)))]
        v = rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
        seeds.append(Ket(v / np.linalg.norm(v), (spec.d,), normalized=True))
        for phi in seeds:
            for orbit_len in {1, s, spec.d}:
                dense = check_orbit(drive(spec), phi, orbit_len).max_deviation
                assert orbit_deviation(eigenvalues(spec), phi.amps, orbit_len) == pytest.approx(dense, rel=1e-9, abs=1e-14)

    def test_refuses_a_coordinate_count_that_is_not_d(self):
        phi = admissible_state(roots_of_unity_spec(3), (0.0, 0.0, 0.0)).amps
        with pytest.raises(ValueError, match="3 coordinates for 4 eigenvalues"):
            orbit_deviation(clock_eigenvalues(4), phi, 3)

    @given(st.integers(min_value=2, max_value=8), st.sampled_from(["clock", "shift", "spec", "conjugated"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_agrees_with_the_dense_oracle(self, d, kind, seed):
        # Each drive as the product reads it: Z_d on the seed itself and X_d on its inverse DFT
        # (the coordinates on |u_k>), both with ModuleConfig's verdict; a diagonal spec on the
        # seed; and U = V D V* on V* phi.
        g = np.random.default_rng(seed)
        if kind == "spec":
            spec = EigenphaseSpec(tuple(g.choice([g.uniform(0, TWO_PI), *(TWO_PI * np.arange(d) / d)], size=d)))
        elif kind == "conjugated":
            q, _ = np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))
            phases = g.choice([g.uniform(0, TWO_PI), *(TWO_PI * np.arange(d) / d)], size=d)
            u = Operator(q @ np.diag(np.exp(1j * phases)) @ q.conj().T, unitary=True)
            _, v, spec = reconstruct_general(u)
        else:
            spec = roots_of_unity_spec(d)
        solution = solve_amplitudes(spec)
        built = solution.feasible and g.random() < 0.5
        if built:
            amps = admissible_state(spec, tuple(g.uniform(0, TWO_PI, size=d))).amps
        else:
            amps = g.normal(size=d) + 1j * g.normal(size=d)
            amps /= np.linalg.norm(amps)
        s = solution.structure.s if built else d
        lam = eigenvalues(spec)
        if kind == "clock":
            u, phi, coords, lam = pauli_z(d), amps, amps, clock_eigenvalues(d)
        elif kind == "shift":
            # A solver-built seed is equal weight on the |u_k>: phi = sum_k a_k |u_k>.
            phi = np.fft.fft(amps, norm="ortho") if built else amps
            u, coords, lam = pauli_x(d), np.fft.ifft(phi, norm="ortho"), clock_eigenvalues(d)
        elif kind == "spec":
            u, phi, coords = drive(spec), amps, amps
        else:
            phi = v.entries @ amps if built else amps
            coords = v.entries.conj().T @ phi
        seed_ket = Ket(phi, (d,), normalized=True)
        dense = check_orbit(u, seed_ket, s)
        got = orbit_deviation(lam, coords, s)
        assert (got <= ORBIT_ATOL) == dense.orthonormal == built
        assert got == pytest.approx(dense.max_deviation, abs=1e-12)
        if kind in ("clock", "shift"):
            coupling = CouplingKind.PHASE if kind == "clock" else CouplingKind.SHIFT
            try:
                ModuleConfig(1, d, coupling, seed_ket)
                admitted = True
            except ValueError:
                admitted = False
            assert admitted == dense.orthonormal
        bad = coords.copy()
        bad[g.integers(d)] = np.nan
        assert not orbit_deviation(lam, bad, s) <= ORBIT_ATOL
        lam[g.integers(d)] *= 1 + 10 * UNITARY_ATOL
        with pytest.raises(ValueError, match="not unitary"):
            orbit_deviation(lam, coords, s)


class TestClassifyEigenphases:
    def test_distinct_phases(self):
        structure = classify_eigenphases(EigenphaseSpec((0.0, 2.0, 4.0)))
        assert structure.s == 3
        assert structure.multiplicities == (1, 1, 1)

    def test_near_duplicates_cluster(self):
        structure = classify_eigenphases(EigenphaseSpec((0.0, 1e-14, math.pi)))
        assert structure.s == 2
        assert structure.multiplicities == (2, 1)
        assert structure.groups == ((0, 1), (2,))

    def test_wraparound_cluster(self):
        # Phases straddling 0 (just below 2*pi and just above 0) are one cluster.
        structure = classify_eigenphases(EigenphaseSpec((TWO_PI - 1e-12, 1e-12, 3.0)))
        assert structure.s == 2
        assert set(structure.groups[0]) == {0, 1} or set(structure.groups[1]) == {0, 1}

    def test_representatives_sorted(self):
        structure = classify_eigenphases(EigenphaseSpec((5.0, 1.0, 3.0)))
        assert structure.representatives == tuple(sorted(structure.representatives))


class TestSolveAmplitudes:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_roots_of_unity_force_flat_magnitudes(self, d):
        solution = solve_amplitudes(roots_of_unity_spec(d))
        assert solution.feasible
        assert solution.squared_amps == tuple([1.0 / d] * d)
        assert solution.structure.s == d

    @pytest.mark.parametrize("offset", [0.0, 0.3, 2.0])
    def test_global_offset_is_irrelevant(self, offset):
        solution = solve_amplitudes(roots_of_unity_spec(5, offset))
        assert solution.feasible
        assert solution.canonical_phase_offset == pytest.approx(offset % TWO_PI, abs=1e-9)

    def test_perturbed_pair_infeasible(self):
        solution = solve_amplitudes(EigenphaseSpec((0.0, 0.1)))
        assert not solution.feasible
        assert solution.squared_amps is None

    def test_perturbed_qutrit_infeasible(self):
        phases = (0.0, TWO_PI / 3 + 0.05, 2 * TWO_PI / 3)
        assert not solve_amplitudes(EigenphaseSpec(phases)).feasible

    def test_degenerate_pair_weights(self):
        # (0, 0, pi, pi): two clusters a half-turn apart; each eigenspace
        # must carry total weight 1/2, split uniformly in the representative.
        solution = solve_amplitudes(EigenphaseSpec((0.0, 0.0, math.pi, math.pi)))
        assert solution.feasible
        assert solution.structure.s == 2
        assert solution.squared_amps == pytest.approx((0.25, 0.25, 0.25, 0.25))
        sums = {grp: w for grp, w in solution.eigenspace_constraints}
        assert sums == {(0, 1): pytest.approx(0.5), (2, 3): pytest.approx(0.5)}

    def test_unbalanced_degenerate(self):
        # Multiplicities (1, 2): weight 1/2 on index 0, 1/4 on each of 1, 2.
        solution = solve_amplitudes(EigenphaseSpec((0.0, math.pi, math.pi)))
        assert solution.feasible
        assert solution.squared_amps == pytest.approx((0.5, 0.25, 0.25))

    def test_degenerate_but_wrong_spacing(self):
        # Two clusters 0 and pi/2: s=2 requires spacing pi, so infeasible.
        assert not solve_amplitudes(EigenphaseSpec((0.0, 0.0, math.pi / 2))).feasible

    @given(st.integers(min_value=2, max_value=6), st.floats(min_value=0.0, max_value=6.28), st.integers(min_value=0, max_value=720))
    def test_permutation_and_offset_invariance(self, d, offset, perm_seed):
        base = roots_of_unity_spec(d, offset).phases
        g = np.random.default_rng(perm_seed)
        shuffled = tuple(np.array(base)[g.permutation(d)])
        solution = solve_amplitudes(EigenphaseSpec(shuffled))
        assert solution.feasible
        assert solution.squared_amps == pytest.approx(tuple([1.0 / d] * d))

    def test_too_few_phases_rejected(self):
        with pytest.raises(ValueError):
            EigenphaseSpec((0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        # A NaN phase would otherwise reduce to NaN and come out merely "infeasible".
        with pytest.raises(ValueError, match="finite"):
            EigenphaseSpec((bad, 0.0))

    def test_drive_is_the_diagonal_of_the_phases(self):
        spec = EigenphaseSpec((0.0, 7.0, -1.0))
        op = drive(spec)
        assert op.unitary
        assert np.array_equal(op.entries, np.diag(np.exp(1j * np.array(spec.phases))))


class TestAdmissibleState:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_orbit_is_orthonormal(self, d):
        spec = roots_of_unity_spec(d)
        theta = [0.1 * j**2 for j in range(d)]
        phi = admissible_state(spec, theta)
        report = check_orbit(drive(spec), phi, d)
        assert report.orthonormal
        assert report.max_deviation < 1e-12

    def test_free_phases_never_matter(self, rng):
        spec = roots_of_unity_spec(4, offset=0.7)
        for _ in range(10):
            theta = rng.uniform(0, TWO_PI, size=4)
            report = check_orbit(drive(spec), admissible_state(spec, tuple(theta)), 4)
            assert report.max_deviation < 1e-12

    def test_degenerate_orbit_length_is_s(self):
        spec = EigenphaseSpec((0.0, 0.0, math.pi, math.pi))
        phi = admissible_state(spec, (0.0, 0.0, 0.0, 0.0))
        report = check_orbit(drive(spec), phi, 2)
        assert report.orthonormal

    def test_infeasible_spec_raises(self):
        with pytest.raises(ValueError):
            admissible_state(EigenphaseSpec((0.0, 0.1)), (0.0, 0.0))

    def test_wrong_phase_count_raises(self):
        with pytest.raises(ValueError):
            admissible_state(roots_of_unity_spec(3), (0.0, 0.0))


class TestReconstructGeneral:
    def test_clock_is_feasible_with_identity_like_basis(self):
        feasible, v, spec = reconstruct_general(pauli_z(3))
        assert feasible
        # Z is already diagonal, so the eigenbasis is a permutation matrix
        # up to phases: every column has a single unit entry.
        assert np.allclose(np.abs(v.entries).max(axis=0), 1.0, atol=1e-10)
        assert sorted(spec.phases) == pytest.approx([0.0, TWO_PI / 3, 2 * TWO_PI / 3], abs=1e-9)

    def test_shift_is_feasible(self):
        feasible, v, spec = reconstruct_general(pauli_x(2))
        assert feasible
        phi = Ket(v.entries @ (np.array([1.0, 1.0]) / math.sqrt(2)), (2,), normalized=True)
        assert check_orbit(pauli_x(2), phi, 2).orthonormal

    def test_hadamard_is_feasible(self):
        # Eigenvalues +1 and -1: phases (0, pi), the qubit roots pattern.
        feasible, v, spec = reconstruct_general(hadamard())
        assert feasible
        phi = Ket(v.entries @ (np.array([1.0, 1.0]) / math.sqrt(2)), (2,), normalized=True)
        assert check_orbit(hadamard(), phi, 2).orthonormal

    def test_near_identity_rotation_infeasible(self):
        u = Operator(np.diag(np.exp(1j * np.array([0.01, -0.01]))), unitary=True)
        feasible, _, _ = reconstruct_general(u)
        assert not feasible

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25)
    def test_random_conjugated_roots_drive_stays_feasible(self, seed):
        g = np.random.default_rng(seed)
        d = int(g.integers(2, 5))
        a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        q, _ = np.linalg.qr(a)
        drive = q @ np.diag(np.exp(1j * TWO_PI * np.arange(d) / d)) @ q.conj().T
        feasible, v, spec = reconstruct_general(Operator(drive, unitary=True))
        assert feasible
        solution = solve_amplitudes(spec)
        amps = v.entries @ np.sqrt(np.array(solution.squared_amps))
        phi = Ket(amps, (d,), normalized=True)
        report = check_orbit(Operator(drive, unitary=True), phi, d)
        assert report.max_deviation < 1e-8

    def test_orbit_closes_with_global_phase(self):
        # D^d = e^{i d phi0} I for any feasible drive built from the spec.
        spec = roots_of_unity_spec(5, offset=0.4)
        m = np.diag(np.exp(1j * np.array(spec.phases)))
        closed = np.linalg.matrix_power(m, 5)
        assert np.allclose(closed, np.exp(5j * 0.4) * np.eye(5), atol=1e-10)


def moved(spec, move, index=1):
    """``spec`` with the phase at ``index`` moved by ``move`` radians."""
    return EigenphaseSpec(tuple(p + move * (j == index) for j, p in enumerate(spec.phases)))


def lp_agrees(spec, feasible):
    """The linear-program oracle and solve_amplitudes both give the verdict ``feasible``;
    returns the oracle's squared magnitudes, or None."""
    q = _lp_weights(spec)
    assert (q is not None) == solve_amplitudes(spec).feasible == feasible
    return q


@st.composite
def rotated_roots(draw):
    """Phases offset + 2 pi m / s for s <= 8 distinct values, with multiplicities that sum to at most 8."""
    s = draw(st.integers(min_value=2, max_value=8))
    mults = [1] * s
    for _ in range(draw(st.integers(min_value=0, max_value=8 - s))):
        mults[draw(st.integers(min_value=0, max_value=s - 1))] += 1
    offset = draw(st.floats(min_value=0.0, max_value=TWO_PI))
    phases = [offset + TWO_PI * m / s for m, k in enumerate(mults) for _ in range(k)]
    return draw(st.permutations(phases))


class TestLinearProgramOracle:
    # Each test pairs a feasible spec with an infeasible one, or holds only infeasible
    # ones, so a solve_amplitudes that reports every spec feasible fails all of them.
    @pytest.mark.parametrize("d", range(2, 9))
    def test_agrees_on_roots_and_a_moved_root(self, d):
        # At offset 1e-9, absolute phases put coefficients near 1e-9 into the program, which
        # HiGHS's presolve drops, and it then read the roots infeasible at d = 3.
        for offset in (0.0, 0.9, 1e-9):
            q = lp_agrees(roots_of_unity_spec(d, offset), True)
            assert q == pytest.approx(np.full(d, 1 / d), abs=1e-12)
        lp_agrees(moved(roots_of_unity_spec(d), 0.07), False)

    @pytest.mark.parametrize("move", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sees_small_moves(self, d, move):
        # A grid over the magnitude simplex reads all of these feasible.
        lp_agrees(roots_of_unity_spec(d), True)
        lp_agrees(moved(roots_of_unity_spec(d), move), False)

    def test_agrees_on_infeasible_pair(self):
        lp_agrees(EigenphaseSpec((0.0, 0.1)), False)

    def test_agrees_on_perturbed_qutrit(self):
        lp_agrees(EigenphaseSpec((0.0, TWO_PI / 3 + 0.05, 2 * TWO_PI / 3)), False)

    def test_degenerate_uses_short_orbit(self):
        q = lp_agrees(EigenphaseSpec((0.0, 0.0, math.pi, math.pi)), True)
        # The weights meet the per-eigenspace sums.
        assert q[0] + q[1] == pytest.approx(0.5, abs=1e-9)
        assert q[2] + q[3] == pytest.approx(0.5, abs=1e-9)
        # Two eigenspaces that are not antipodal admit no weights.
        lp_agrees(EigenphaseSpec((0.0, 0.0, math.pi + 1e-3, math.pi + 1e-3)), False)

    @pytest.mark.parametrize("status", [1, 3, 4])
    def test_other_statuses_raise(self, monkeypatch, status):
        # Only HiGHS's feasible (0) and infeasible (2) statuses are verdicts.
        import scipy.optimize

        result = SimpleNamespace(status=status, message="stopped", x=np.full(2, 0.5))
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: result)
        with pytest.raises(RuntimeError, match=f"status {status}: stopped"):
            _lp_weights(roots_of_unity_spec(2))

    @given(rotated_roots())
    def test_agrees_on_rotated_roots(self, phases):
        lp_agrees(EigenphaseSpec(tuple(phases)), True)

    # A move below HiGHS's feasibility tolerance (~1e-7) but above the solver's 1e-9
    # grouping would read feasible to the oracle alone, so moves start at 1e-5.
    @given(rotated_roots(), st.data())
    def test_agrees_on_one_moved_phase(self, phases, data):
        index = data.draw(st.integers(min_value=0, max_value=len(phases) - 1))
        move = data.draw(st.floats(min_value=1e-5, max_value=0.5)) * data.draw(st.sampled_from([1, -1]))
        lp_agrees(moved(EigenphaseSpec(tuple(phases)), move, index), False)


def test_import_leaves_scipy_unloaded():
    # scipy is imported inside the one package function that uses it, reconstruct_general,
    # and inside verify's linear-program oracle, not when the package loads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qparity; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
