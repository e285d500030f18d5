"""Unit tests for the dense linear-algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qparity.linalg import (
    NORM_ATOL,
    Ket,
    Operator,
    basis_ket,
    fidelity,
    fourier_ket,
    hadamard,
    hamming_weights,
    inner,
    omega,
    pauli_x,
    pauli_z,
    plus_state,
    require_normalized,
    tensor,
    weight_classes,
    weight_order,
)

DIMS = st.integers(min_value=2, max_value=8)


class TestClockAndShiftAlgebra:
    @given(DIMS)
    def test_shift_has_order_d(self, d):
        x = pauli_x(d).entries
        acc = np.linalg.matrix_power(x, d)
        assert np.allclose(acc, np.eye(d), atol=1e-12)

    @given(DIMS)
    def test_clock_has_order_d(self, d):
        z = pauli_z(d).entries
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)

    @given(DIMS)
    def test_weyl_commutation(self, d):
        # ZX = omega XZ is the defining braiding of the clock/shift pair.
        x, z = pauli_x(d).entries, pauli_z(d).entries
        assert np.allclose(z @ x, omega(d) * (x @ z), atol=1e-12)

    @given(DIMS)
    def test_shift_moves_basis_states(self, d):
        x = pauli_x(d)
        for j in range(d):
            moved = x.entries @ basis_ket((d,), j).amps
            expect = basis_ket((d,), (j + 1) % d)
            assert np.allclose(moved, expect.amps)

    def test_clock_entries_qutrit(self):
        w = omega(3)
        assert np.allclose(pauli_z(3).entries, np.diag([1, w, w**2]))

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            pauli_x(1)
        with pytest.raises(ValueError):
            pauli_z(0)
        with pytest.raises(ValueError):
            omega(0)


class TestFourierBasis:
    @given(DIMS)
    def test_orthonormal(self, d):
        mat = np.column_stack([fourier_ket(d, k).amps for k in range(d)])
        assert np.allclose(mat.conj().T @ mat, np.eye(d), atol=1e-12)

    @given(DIMS)
    def test_shift_eigenvectors(self, d):
        # X |u_k> = omega^k |u_k>
        x = pauli_x(d)
        for k in range(d):
            u = fourier_ket(d, k)
            assert np.allclose(x.entries @ u.amps, omega(d) ** k * u.amps, atol=1e-12)

    @given(DIMS)
    def test_clock_cycles_fourier_states(self, d):
        # Z |u_k> = |u_{k-1 mod d}>
        z = pauli_z(d)
        for k in range(d):
            out = z.entries @ fourier_ket(d, k).amps
            assert np.allclose(out, fourier_ket(d, (k - 1) % d).amps, atol=1e-12)

    def test_zeroth_is_uniform(self):
        u0 = fourier_ket(5, 0)
        assert np.allclose(u0.amps, np.full(5, 1 / math.sqrt(5)))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            fourier_ket(3, 3)
        with pytest.raises(IndexError):
            fourier_ket(3, -1)

    def test_hadamard_is_qubit_fourier(self):
        h = hadamard()
        assert np.allclose(h.entries[:, 0], fourier_ket(2, 0).amps)
        assert np.allclose(h.entries @ h.entries, np.eye(2), atol=1e-12)


class TestKetConstruction:
    def test_normalized_flag_enforced(self):
        with pytest.raises(ValueError):
            Ket(np.array([1.0, 1.0]), (2,), normalized=True)

    def test_nan_amplitude_fails_normalized_flag(self):
        # NaN compares False against every tolerance, so the check must fail closed.
        with pytest.raises(ValueError):
            Ket(np.array([np.nan, 1.0, 0.0, 0.0]), (2, 2), normalized=True)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Ket(np.zeros(3), (2, 2))

    def test_amps_are_frozen(self):
        k = basis_ket((2, 2), 0)
        with pytest.raises(ValueError):
            k.amps[0] = 5.0

    def test_public_construction_copies(self):
        arr = np.array([0.6, 0.8j])
        k = Ket(arr, (2,), normalized=True)
        assert not np.shares_memory(k.amps, arr)
        assert arr.flags.writeable
        arr[0] = 1.0
        assert k.amps[0] == 0.6

    def test_adopted_array_is_checked_and_frozen_not_copied(self):
        arr = np.array([0.6, 0.8j])
        k = Ket._adopt(arr, (2,))
        assert k.amps is arr and not arr.flags.writeable
        assert k.normalized and k.factor_dims == (2,)
        with pytest.raises(ValueError, match="squared norm"):
            Ket._adopt(np.array([1.0, 1.0j]), (2,))
        with pytest.raises(ValueError, match="do not fill"):
            Ket._adopt(np.array([1.0 + 0j]), (2, 2))

    def test_plus_state_amplitudes(self):
        p = plus_state(3)
        assert p.factor_dims == (2, 2, 2)
        assert np.allclose(p.amps, np.full(8, 8 ** -0.5))

    def test_basis_ket_bounds(self):
        with pytest.raises(IndexError):
            basis_ket((2, 3), 6)


class TestOperatorConstruction:
    def test_unitary_flag_enforced(self):
        with pytest.raises(ValueError):
            Operator(np.array([[1.0, 0.0], [0.0, 2.0]]), unitary=True)

    def test_unitarity_guard_fails_closed_on_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]), unitary=True)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_real_matrix_stays_real(self):
        # Real projector views take half the memory of complex128 ones.
        assert Operator(np.eye(2)).entries.dtype == np.float64
        assert Operator(np.eye(2, dtype=int)).entries.dtype == np.float64
        assert Operator(np.eye(2) + 0j).entries.dtype == np.complex128


class TestRequireNormalized:
    def test_guard_fails_closed_on_nan(self):
        with pytest.raises(ValueError, match="probe must be normalized"):
            require_normalized(Ket(np.array([np.nan, 0.0]), (2,)), "probe")

    def test_tolerance_is_norm_atol(self):
        require_normalized(Ket(np.array([1.0 + 0.5 * NORM_ATOL, 0.0]), (2,)), "probe")
        with pytest.raises(ValueError, match="norm is 1.000000000200"):
            require_normalized(Ket(np.array([1.0 + 2 * NORM_ATOL, 0.0]), (2,)), "probe")


class TestTensorAndInner:
    def test_ket_tensor_matches_kron(self):
        a = fourier_ket(2, 1)
        b = basis_ket((3,), 2)
        t = tensor([a, b])
        assert t.factor_dims == (2, 3)
        assert np.allclose(t.amps, np.kron(a.amps, b.amps))
        assert t.normalized

    def test_operator_tensor_flags(self):
        t = tensor([pauli_x(2), pauli_z(3)])
        assert t.unitary
        assert np.allclose(t.entries, np.kron(pauli_x(2).entries, pauli_z(3).entries))

    def test_mixed_tensor_rejected(self):
        with pytest.raises(ValueError):
            tensor([basis_ket((2,), 0), pauli_x(2)])

    def test_inner_conjugates_first_slot(self):
        a = Ket(np.array([1j, 0.0]), (2,))
        b = basis_ket((2,), 0)
        assert inner(a, b) == pytest.approx(-1j)
        assert inner(b, a) == pytest.approx(1j)

    def test_fidelity_phase_invariant(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        a = Ket(v, (2, 2), normalized=True)
        b = Ket(v * np.exp(0.3j), (2, 2), normalized=True)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(basis_ket((2,), 0), basis_ket((3,), 0))


class TestIndexing:
    @given(st.integers(min_value=0, max_value=16))
    def test_hamming_weights_match_popcount(self, n):
        w = hamming_weights(n)
        assert w.shape == (1 << n,) and w.dtype == np.uint8
        sample = range(1 << n) if n <= 10 else range(0, 1 << n, 97)
        for x in sample:
            assert w[x] == bin(x).count("1")

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_weight_classes_are_weights_mod_d(self, n):
        wts = [bin(x).count("1") for x in range(1 << n)]
        for d in (2, 3, n, n + 1, 255, 256, 300):
            classes = weight_classes(n, d)
            assert classes.tolist() == [w % d for w in wts]
            # Built once per (n, d) and shared, like hamming_weights, so no caller may write it.
            assert classes is weight_classes(n, d) and classes.dtype == np.uint8 and not classes.flags.writeable
        # Every weight is its own class once d exceeds n: the cached array itself.
        assert weight_classes(n, n + 1) is hamming_weights(n)

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_weight_order_slices_are_weight_classes(self, n):
        wts = hamming_weights(n)
        order, starts = weight_order(n)
        assert starts[0] == 0 and starts[-1] == 1 << n
        for k in range(n + 1):
            assert np.array_equal(order[starts[k] : starts[k + 1]], np.flatnonzero(wts == k))

    @pytest.mark.parametrize("n", [1, 6])
    def test_cached_weights_and_order_are_read_only(self, n):
        # Every caller shares one array per n, so a write must fail instead of leaking.
        assert hamming_weights(n) is hamming_weights(n)
        for a in (hamming_weights(n), *weight_order(n)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
