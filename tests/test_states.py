"""Unit tests for the reference state families, decomposition, and classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ket_amps
from qparity.linalg import Ket, basis_ket, canonical_phase, fidelity, hamming_weights, plus_state, tensor
from qparity.states import (
    FIDELITY_THRESHOLD,
    ClassificationResult,
    Family,
    _product_factorization,
    bitflip_all,
    classify,
    dicke,
    dicke_decompose,
    dicke_sum,
    expectations,
    g,
    g_general,
    ghz,
    predicted_branch,
    squared_weight_ratios,
    w,
)


def full_vector_candidates(n):
    """Named families as full 2^n reference kets, in classify's trial order.

    The flip flag marks families whose all-qubit-flipped twin is not already
    in the list (W flips onto D(n, n-1)).
    """
    if n >= 2:
        yield Family.GHZ, None, ghz(n), False
        yield Family.W, 1, w(n), True
    for k in range(n + 1):
        yield Family.DICKE, k, dicke(n, k), False
    if n >= 3:
        yield Family.G, 1, g(n), False
    for k in range(2, (n - 1) // 2 + 1):
        yield Family.G_GENERAL, k, g_general(n, k), False


def full_vector_classify(state, tol=1e-10):
    """Oracle for classify: fidelities against full 2^n reference kets."""
    n = len(state.factor_dims)
    flipped = bitflip_all(state)
    for family, k, ref, try_flip in full_vector_candidates(n):
        f = fidelity(state, ref)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(family, n, k, False, f)
        if try_flip:
            f = fidelity(flipped, ref)
            if f >= FIDELITY_THRESHOLD:
                return ClassificationResult(family, n, k, True, f)
    product = _product_factorization(state)
    if product is not None:
        f = fidelity(state, product)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(Family.PRODUCT, n, None, False, f)
    dec = dicke_decompose(state)
    if dec.residual < tol:
        return ClassificationResult(Family.DICKE_SUM, n, None, False, 1.0 - dec.residual**2)
    return ClassificationResult(Family.OTHER, n, None, False, 0.0)


def assert_matches_oracle(state):
    got = classify(state)
    want = full_vector_classify(state)
    assert (got.family, got.n, got.k, got.up_to_bitflip) == (
        want.family,
        want.n,
        want.k,
        want.up_to_bitflip,
    )
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12)
    return got


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


class TestFamilyConstructors:
    def test_dicke_amplitudes(self):
        d32 = dicke(3, 2)
        expect = np.zeros(8)
        expect[[3, 5, 6]] = 1 / math.sqrt(3)
        assert np.allclose(d32.amps, expect)

    def test_dicke_endpoints_are_basis_states(self):
        assert np.allclose(dicke(4, 0).amps, basis_ket((2,) * 4, 0).amps)
        assert np.allclose(dicke(4, 4).amps, basis_ket((2,) * 4, 15).amps)

    def test_ghz_amplitudes(self):
        state = ghz(3)
        expect = np.zeros(8)
        expect[[0, 7]] = 1 / math.sqrt(2)
        assert np.allclose(state.amps, expect)

    def test_w_is_single_excitation_dicke(self):
        assert np.allclose(w(4).amps, dicke(4, 1).amps)

    def test_g3_has_six_equal_amplitudes(self):
        state = g(3)
        expect = np.zeros(8)
        expect[[1, 2, 3, 4, 5, 6]] = 1 / math.sqrt(6)
        assert np.allclose(state.amps, expect)

    def test_g2_collapses_to_half_filled_dicke(self):
        assert np.allclose(g(2).amps, dicke(2, 1).amps)

    def test_g_general_halves(self):
        state = g_general(5, 2)
        expect = (dicke(5, 2).amps + dicke(5, 3).amps) / math.sqrt(2)
        assert np.allclose(state.amps, expect)
        assert np.allclose(g_general(4, 2).amps, dicke(4, 2).amps)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            dicke(3, 4)
        with pytest.raises(ValueError):
            ghz(1)
        with pytest.raises(ValueError):
            w(1)
        with pytest.raises(ValueError):
            g_general(1, 0)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 3), (7, 0)])
    def test_flip_duality(self, n, k):
        assert np.allclose(bitflip_all(dicke(n, k)).amps, dicke(n, n - k).amps)

    def test_ghz_and_g_are_flip_symmetric(self):
        assert np.allclose(bitflip_all(ghz(4)).amps, ghz(4).amps)
        assert np.allclose(bitflip_all(g(5)).amps, g(5).amps)
        assert np.allclose(bitflip_all(g_general(7, 3)).amps, g_general(7, 3).amps)


class TestDickeDecomposition:
    def test_pure_dicke(self):
        dec = dicke_decompose(dicke(5, 2))
        assert dec.coeffs == pytest.approx({2: 1.0})
        assert dec.residual < 1e-12

    def test_ghz_decomposition(self):
        dec = dicke_decompose(ghz(3))
        assert dec.coeffs == pytest.approx({0: 1 / math.sqrt(2), 3: 1 / math.sqrt(2)})
        assert dec.residual < 1e-12

    def test_asymmetric_state_leaves_residual(self):
        # |01> has half its weight-1 content in the antisymmetric direction.
        dec = dicke_decompose(basis_ket((2, 2), 1))
        assert dec.coeffs == pytest.approx({1: 1 / math.sqrt(2)})
        assert dec.residual == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_global_phase_removed_first(self):
        rotated = Ket(np.exp(0.9j) * dicke(4, 2).amps, (2,) * 4, normalized=True)
        dec = dicke_decompose(rotated)
        assert dec.coeffs == pytest.approx({2: 1.0})
        assert dec.residual < 1e-12

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30)
    def test_weights_and_residual_partition_unity(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 6))
        state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
        dec = dicke_decompose(state)
        total = sum(c * c for c in dec.coeffs.values()) + dec.residual**2
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=10), st.booleans())
    @settings(max_examples=40)
    def test_matches_per_weight_mask_reference_bitwise(self, seed, n, symmetric):
        # The reference sums each class under a full-length mask and subtracts in place;
        # the weight-order pass must give the same floats, residual included.
        g_rng = np.random.default_rng(seed)
        if symmetric:
            state = dicke_sum(n, dict(enumerate(g_rng.normal(size=n + 1) + 1j * g_rng.normal(size=n + 1))))
        else:
            state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
        amps = canonical_phase(state).amps
        wts = hamming_weights(n)
        coeffs, remainder = {}, np.array(amps)
        for k in range(n + 1):
            mask = wts == k
            scale = math.sqrt(math.comb(n, k))
            c = float(np.real(np.sum(amps[mask])) / scale)
            if abs(c) >= 1e-12:
                coeffs[k] = c
                remainder[mask] -= c / scale
        dec = dicke_decompose(state)
        assert dec.coeffs == coeffs
        assert dec.residual == float(np.linalg.norm(remainder))

    def test_round_trip_through_builder(self):
        original = dicke_sum(4, {0: 0.5, 2: 1.0, 4: -0.25})
        dec = dicke_decompose(original)
        rebuilt = dicke_sum(dec.n, dec.coeffs)
        assert fidelity(original, rebuilt) == pytest.approx(1.0, abs=1e-12)

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            dicke_sum(3, {})
        with pytest.raises(ValueError):
            dicke_sum(3, {5: 1.0})


class TestPredictedBranch:
    def test_matches_module_output(self):
        from qparity.module import ModuleConfig, run_module

        for n, d in [(4, 3), (5, 3), (5, 4), (6, 4)]:
            records = run_module(plus_state(n), ModuleConfig(n, d), classify_states=False)
            for r in records:
                if r.zero_probability:
                    continue
                dec = predicted_branch(n, d, r.parity)
                target = dicke_sum(dec.n, dec.coeffs)
                assert fidelity(r.post_state, target) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_enumeration_oracle(self):
        # Independently gather sqrt(C(n, j)) over j == k (mod d) and compare.
        for n, d, k in [(5, 3, 1), (7, 4, 2), (9, 5, 0)]:
            dec = predicted_branch(n, d, k)
            js = [j for j in range(n + 1) if j % d == k]
            raw = np.array([math.sqrt(math.comb(n, j)) for j in js])
            raw /= np.linalg.norm(raw)
            assert sorted(dec.coeffs) == js
            for j, c in zip(js, raw):
                assert dec.coeffs[j] == pytest.approx(c, abs=1e-12)

    def test_squared_ratios(self):
        # Parity-2 branch of (5, 3): weights 2 and 5 with C(5,2)=10, C(5,5)=1.
        ratios = squared_weight_ratios(predicted_branch(5, 3, 2))
        assert ratios == {2: 10, 5: 1}

    def test_squared_ratios_reject_irrational(self):
        dec = dicke_decompose(dicke_sum(3, {0: 1.0, 1: 1.3}))
        assert squared_weight_ratios(dec) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_branch(5, 3, 3)
        with pytest.raises(ValueError):
            predicted_branch(2, 5, 4)


class TestClassification:
    def test_named_families(self):
        assert classify(ghz(4)).label() == "GHZ"
        assert classify(w(5)).label() == "W"
        assert classify(dicke(5, 2)).label() == "Dicke(5,2)"
        assert classify(g(5)).label() == "G_5"
        assert classify(g_general(7, 2)).label() == "G(7,2)"

    def test_flipped_w_reports_w(self):
        result = classify(bitflip_all(w(4)))
        assert result.family is Family.W
        assert result.up_to_bitflip

    def test_high_weight_dicke_not_mistaken_for_flipped_low(self):
        result = classify(dicke(7, 4))
        assert result.label() == "Dicke(7,4)"
        assert not result.up_to_bitflip

    def test_product_state(self):
        result = classify(plus_state(3))
        assert result.family is Family.PRODUCT

    def test_generic_symmetric_state(self):
        state = dicke_sum(4, {0: 1.0, 1: 1.0, 2: 1.0})
        assert classify(state).family is Family.DICKE_SUM

    def test_asymmetric_entangled_state_is_other(self):
        amps = np.zeros(8, dtype=complex)
        amps[1] = amps[2] = 1 / math.sqrt(2)
        amps[1] *= np.exp(0.3j)
        state = Ket(amps, (2, 2, 2), normalized=True)
        assert classify(state).family is Family.OTHER

    def test_phase_invariance(self):
        rotated = Ket(np.exp(1.1j) * ghz(3).amps, (2, 2, 2), normalized=True)
        assert classify(rotated).label() == "GHZ"

    def test_half_filled_reported_as_dicke(self):
        assert classify(dicke(6, 3)).label() == "Dicke(6,3)"

    def test_fidelity_reported(self):
        assert classify(w(3)).fidelity == pytest.approx(1.0, abs=1e-12)

    def test_non_qubit_register_rejected(self):
        with pytest.raises(ValueError):
            classify(Ket(np.array([1.0, 0, 0]), (3,), normalized=True))

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20)
    def test_random_states_classify_without_error(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 6))
        state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
        result = classify(state)
        assert result.family in Family
        assert 0.0 <= result.fidelity <= 1.0 + 1e-12


class TestClassifyAgainstFullVectorOracle:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_named_families_with_phases_and_flips(self, n):
        g_rng = np.random.default_rng(n)
        for family, k, ref, _ in full_vector_candidates(n):
            phase = np.exp(2j * np.pi * g_rng.random())
            state = Ket(phase * ref.amps, ref.factor_dims, normalized=True)
            got = assert_matches_oracle(state)
            assert got.fidelity >= FIDELITY_THRESHOLD
            assert_matches_oracle(bitflip_all(state))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_random_dicke_sums(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 11))
        size = int(g_rng.integers(1, n + 2))
        ks = g_rng.choice(n + 1, size=size, replace=False)
        coeffs = {int(k): complex(g_rng.normal(), g_rng.normal()) for k in ks}
        assert_matches_oracle(dicke_sum(n, coeffs))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_product_states(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 9))
        factors = [Ket(random_ket_amps(g_rng, 2), (2,), normalized=True) for _ in range(n)]
        assert_matches_oracle(tensor(factors))
        assert_matches_oracle(basis_ket((2,) * n, int(g_rng.integers(0, 1 << n))))
        assert_matches_oracle(plus_state(n))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_random_states(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 11))
        got = assert_matches_oracle(Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True))
        if n >= 3:
            assert got.family is Family.OTHER


class TestExpectations:
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25)
    def test_matches_dense_operator_oracle(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 7))
        state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
        rep = expectations(state)
        x_op = kron_chain([self.X] * n)
        y_op = kron_chain([self.Y] * n)
        assert rep.x_all == pytest.approx(float(np.vdot(state.amps, x_op @ state.amps).real), abs=1e-10)
        assert rep.y_all == pytest.approx(float(np.vdot(state.amps, y_op @ state.amps).real), abs=1e-10)
        assert rep.max_imag < 1e-10

    def test_ghz_all_x(self):
        assert expectations(ghz(5)).x_all == pytest.approx(1.0, abs=1e-12)

    def test_plus_state(self):
        rep = expectations(plus_state(4))
        assert rep.x_all == pytest.approx(1.0, abs=1e-12)
        assert rep.y_all == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 1), (5, 2), (6, 2), (7, 3), (8, 3), (4, 2)])
    def test_two_component_sums_closed_form(self, n, k):
        # <X...X> = 1 always; <Y...Y> = (-1)^(n/2 + k) for even n, 0 for odd.
        rep = expectations(g_general(n, k))
        assert rep.x_all == pytest.approx(1.0, abs=1e-12)
        expect_y = float((-1) ** (n // 2 + k)) if n % 2 == 0 else 0.0
        assert rep.y_all == pytest.approx(expect_y, abs=1e-12)
