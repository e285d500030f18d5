"""Unit tests for the orbit-orthonormality solver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity.linalg import Ket, Operator, hadamard, pauli_x, pauli_z
from qparity.solver import (
    EigenphaseSpec,
    admissible_state,
    brute_force_feasible,
    brute_force_min_deviation,
    check_orbit,
    classify_eigenphases,
    reconstruct_general,
    roots_of_unity_spec,
    solve_amplitudes,
)

TWO_PI = 2.0 * math.pi


class TestCheckOrbit:
    def test_clock_orbit_of_uniform_state_is_orthonormal(self):
        d = 4
        phi = Ket(np.full(d, d**-0.5), (d,), normalized=True)
        report = check_orbit(pauli_z(d), phi, d)
        assert report.orthonormal
        assert report.max_deviation < 1e-12
        assert np.allclose(report.gram, np.eye(d), atol=1e-12)

    def test_near_identity_drive_overlaps_heavily(self):
        # diag(1, e^{0.1i}) moves the seed by a tiny rotation, so
        # |<phi|D phi>| >= cos(0.05) no matter how the weight is split.
        drive = EigenphaseSpec((0.0, 0.1)).drive()
        phi = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,), normalized=True)
        report = check_orbit(drive, phi, 2)
        assert not report.orthonormal
        assert abs(report.gram[0, 1]) >= math.cos(0.05) - 1e-12

    def test_rejects_nonunitary(self):
        bad = Operator(np.diag([1.0, 2.0]))
        phi = Ket(np.array([1.0, 0.0]), (2,), normalized=True)
        with pytest.raises(ValueError):
            check_orbit(bad, phi, 2)

    def test_rejects_unnormalized_seed(self):
        with pytest.raises(ValueError):
            check_orbit(pauli_z(2), Ket(np.array([1.0, 1.0]), (2,)), 2)

    def test_returns_the_orbit_rows(self):
        phi = Ket(np.array([0.6, 0.8j]), (2,), normalized=True)
        u = hadamard()
        report = check_orbit(u, phi, 2)
        assert np.array_equal(report.orbit, [phi.amps, u.entries @ phi.amps])
        assert not report.orbit.flags.writeable
        assert np.array_equal(report.gram, report.orbit.conj() @ report.orbit.T)

    def test_nan_fails_closed(self):
        # NaN compares False against every tolerance, so each guard must be written to fail on it.
        phi = Ket(np.array([1.0, 1.0]) / math.sqrt(2), (2,), normalized=True)
        with pytest.raises(ValueError, match="normalized"):
            check_orbit(pauli_z(2), Ket(np.array([np.nan, 1.0]), (2,)), 2)
        with pytest.raises(ValueError, match="not unitary"):
            check_orbit(Operator(np.diag([np.nan, 1.0])), phi, 2)
        with pytest.raises(ValueError, match="not unitary"):
            reconstruct_general(Operator(np.diag([np.nan, 1.0])))

    def test_flagged_drive_is_not_rechecked(self, monkeypatch):
        # Operator(unitary=True) is the one unitarity test; a drive that passed it is not tested again.
        drive, phi = pauli_z(3), Ket(np.full(3, 3**-0.5), (3,), normalized=True)
        monkeypatch.setattr(Operator, "__post_init__", lambda op: pytest.fail("built an Operator"))
        assert check_orbit(drive, phi, 3).orthonormal

    def test_rejects_bad_orbit_length(self):
        phi = Ket(np.array([1.0, 0.0]), (2,), normalized=True)
        with pytest.raises(ValueError):
            check_orbit(pauli_z(2), phi, 3)
        with pytest.raises(ValueError):
            check_orbit(pauli_z(2), phi, 0)


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
        drive = spec.drive()
        assert drive.unitary
        assert np.array_equal(drive.entries, np.diag(np.exp(1j * np.array(spec.phases))))


class TestAdmissibleState:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_orbit_is_orthonormal(self, d):
        spec = roots_of_unity_spec(d)
        theta = [0.1 * j**2 for j in range(d)]
        phi = admissible_state(spec, theta)
        report = check_orbit(spec.drive(), phi, d)
        assert report.orthonormal
        assert report.max_deviation < 1e-12

    def test_free_phases_never_matter(self, rng):
        spec = roots_of_unity_spec(4, offset=0.7)
        for _ in range(10):
            theta = rng.uniform(0, TWO_PI, size=4)
            report = check_orbit(spec.drive(), admissible_state(spec, tuple(theta)), 4)
            assert report.max_deviation < 1e-12

    def test_degenerate_orbit_length_is_s(self):
        spec = EigenphaseSpec((0.0, 0.0, math.pi, math.pi))
        phi = admissible_state(spec, (0.0, 0.0, 0.0, 0.0))
        report = check_orbit(spec.drive(), phi, 2)
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


class TestBruteForceOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_on_roots(self, d):
        assert brute_force_feasible(roots_of_unity_spec(d), grid=0.02)

    def test_agrees_on_infeasible_pair(self):
        dev, _ = brute_force_min_deviation(EigenphaseSpec((0.0, 0.1)), grid=0.02)
        assert dev >= math.cos(0.05) - 1e-9
        assert not brute_force_feasible(EigenphaseSpec((0.0, 0.1)), grid=0.02)

    def test_agrees_on_perturbed_qutrit(self):
        phases = (0.0, TWO_PI / 3 + 0.05, 2 * TWO_PI / 3)
        assert not brute_force_feasible(EigenphaseSpec(phases), grid=0.02)

    def test_degenerate_uses_short_orbit(self):
        spec = EigenphaseSpec((0.0, 0.0, math.pi, math.pi))
        dev, q = brute_force_min_deviation(spec, grid=0.02)
        assert dev < 1e-6
        # Recovered weights satisfy the per-eigenspace sums.
        assert q[0] + q[1] == pytest.approx(0.5, abs=1e-6)
        assert q[2] + q[3] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize(
        "d,grid",
        [(2, 0.02), (3, 0.02), (4, 0.02), (5, 0.04), (6, 0.05)],
    )
    def test_matches_analytic_verdict_offset_battery(self, d, grid):
        for offset in (0.0, 0.9):
            spec = roots_of_unity_spec(d, offset)
            assert brute_force_feasible(spec, grid=grid) == solve_amplitudes(spec).feasible
        perturbed = EigenphaseSpec(tuple(p + (0.07 if j == 1 else 0.0) for j, p in enumerate(roots_of_unity_spec(d).phases)))
        assert brute_force_feasible(perturbed, grid=grid) == solve_amplitudes(perturbed).feasible

    def test_minimum_deviation_near_zero_when_feasible(self):
        dev, q = brute_force_min_deviation(roots_of_unity_spec(3), grid=0.02)
        assert dev < 1e-9
        assert q == pytest.approx(np.full(3, 1 / 3), abs=1e-6)


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the two functions that use it, not by the package.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qparity; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
