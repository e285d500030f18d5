"""Unit tests for the reference state families, decomposition, and classification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_ket, random_ket_amps
from qparity.linalg import Ket, fidelity, hamming_weights, plus_state, tensor
from qparity.module import CouplingKind, ModuleConfig, run_module
from qparity.states import (
    FIDELITY_THRESHOLD,
    ClassificationResult,
    Family,
    _product_factorization,
    bitflip_all,
    classify,
    classify_symmetric,
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


def svd_product_factorization(state):
    """Greedy rank-1 splitting by full SVD per split; the product state or None."""
    n = len(state.factor_dims)
    factors = []
    rem = np.array(state.amps)
    for _ in range(n - 1):
        m = rem.reshape(2, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s.size > 1 and s[1] > 3e-6:
            return None
        factors.append(u[:, 0])
        rem = s[0] * vh[0]
    nrm = np.linalg.norm(rem)
    if nrm < 1e-12:
        return None
    factors.append(rem / nrm)
    amps = factors[0]
    for f in factors[1:]:
        amps = np.kron(amps, f)
    return Ket(amps, state.factor_dims, normalized=True)


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
    product = svd_product_factorization(state)
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


def assert_mask_reference_bits(state):
    """``dicke_decompose`` has the bits of the reference that fixes the phase with the first
    amplitude above 1e-12, sums each class under a full-length mask and subtracts in place."""
    n = len(state.factor_dims)
    lead = state.amps[np.flatnonzero(np.abs(state.amps) > 1e-12)[0]]
    amps = state.amps * (lead.conjugate() / abs(lead))
    wts = hamming_weights(n)
    coeffs, overlaps, remainder = {}, [], np.array(amps)
    for k in range(n + 1):
        mask = wts == k
        scale = math.sqrt(math.comb(n, k))
        total = np.sum(amps[mask])
        overlaps.append(total / scale)
        c = float(np.real(total) / scale)
        if abs(c) >= 1e-12:
            coeffs[k] = c
            remainder[mask] -= c / scale
    dec = dicke_decompose(state)
    assert dec.coeffs == coeffs
    assert np.array_equal(dec.overlaps, overlaps)
    assert dec.residual == float(np.linalg.norm(remainder))


def random_product(g_rng, n):
    return tensor([Ket(random_ket_amps(g_rng, 2), (2,), normalized=True) for _ in range(n)])


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

    def test_half_filled_dicke_builds_at_22_qubits(self):
        # Its C(22, 11) equal squares once summed to 1 - 1.3e-12 by np.vdot, past NORMALIZED_ATOL.
        state = dicke(22, 11)
        assert state.normalized and state.dim == 1 << 22

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

    def test_phase_read_off_first_amplitude_above_floor(self):
        # i(|01> + |10>)/sqrt(2) plus a |00> amplitude too small to set the phase.
        amps = np.array([1e-13, 1j, 1j, 0.0]) / math.sqrt(2)
        dec = dicke_decompose(Ket(amps, (2, 2), normalized=True))
        assert dec.overlaps[1] == pytest.approx(1.0, abs=1e-12)
        assert dec.coeffs == pytest.approx({1: 1.0})

    def test_zero_vector_rejected(self):
        for n in (2, 13):
            for scale in (0.0, 1e-13):
                with pytest.raises(ValueError, match="zero vector"):
                    dicke_decompose(Ket(np.full(1 << n, scale), (2,) * n))

    @given(st.integers(min_value=0, max_value=999))
    def test_decomposition_is_phase_free(self, seed):
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 6))
        amps = random_ket_amps(g_rng, 1 << n)
        rotated = Ket(amps * np.exp(1j * g_rng.uniform(0, 2 * np.pi)), (2,) * n, normalized=True)
        a = dicke_decompose(Ket(amps, (2,) * n, normalized=True))
        b = dicke_decompose(rotated)
        assert np.allclose(a.overlaps, b.overlaps, atol=1e-10)
        assert b.residual == pytest.approx(a.residual, abs=1e-10)
        assert b.coeffs == pytest.approx(a.coeffs, abs=1e-10)

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
        # The reference fixes the phase with the first amplitude above 1e-12, sums
        # each class under a full-length mask and subtracts in place; the
        # weight-order pass must give the same floats, overlaps and residual included.
        g_rng = np.random.default_rng(seed)
        if symmetric:
            state = dicke_sum(n, dict(enumerate(g_rng.normal(size=n + 1) + 1j * g_rng.normal(size=n + 1))))
        else:
            state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
        assert_mask_reference_bits(state)

    @pytest.mark.parametrize("lead_at", [4096, 5000, (1 << 14) - 1])
    def test_phase_lead_past_the_first_block_keeps_the_reference_bits(self, lead_at):
        # Every amplitude ahead of the lead sits below the 1e-12 floor, so the blocked
        # search must look past its first 4096 entries to find the same lead.
        g_rng = np.random.default_rng(lead_at)
        n = 14
        amps = random_ket_amps(g_rng, 1 << n)
        amps[:lead_at] *= 1e-13 / np.abs(amps[:lead_at]).max()
        amps /= math.sqrt(np.sum(np.abs(amps) ** 2))
        assert_mask_reference_bits(Ket(amps, (2,) * n))

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


class TestClassifyReadsItsDecomposition:
    @staticmethod
    def branch_kinds(n, g_rng):
        """One state per family classify can report, plus a flipped W."""
        return [
            ghz(n),
            w(n),
            bitflip_all(w(n)),
            dicke(n, 2),
            g(n),
            random_product(g_rng, n),
            dicke_sum(n, {0: 1.0, 1: 0.5, n: -0.7}),
            Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True),
        ]

    @pytest.mark.parametrize("n", [4, 9])
    def test_decomposition_is_dicke_decompose_bitwise(self, n):
        g_rng = np.random.default_rng(n)
        families = set()
        for state in self.branch_kinds(n, g_rng):
            got = classify(state)
            want = dicke_decompose(state)
            families.add(got.family)
            assert got.decomposition.n == want.n
            assert got.decomposition.coeffs == want.coeffs
            assert got.decomposition.residual == want.residual
            assert np.array_equal(got.decomposition.overlaps, want.overlaps)
        assert families == set(Family) - {Family.G_GENERAL}

    def test_peak_allocation_below_two_and_a_half_vectors(self):
        # A vector is 16 * 2^n bytes.  The phase-fixed copy and its weight-ordered
        # gather are the only full vectors classify holds at once; the parent
        # peaked at 3.5 vectors on Other branches.
        n = 16
        for state in self.branch_kinds(n, np.random.default_rng(16)):
            classify(state)  # the cached weight tables are built outside the trace
            tracemalloc.start()
            try:
                classify(state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * state.amps.nbytes


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
        assert_matches_oracle(random_product(g_rng, n))
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


class TestProductSplit:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.one_of(st.just(0.0), st.floats(min_value=-9.0, max_value=-3.0).map(lambda e: 10.0**e)),
    )
    @settings(max_examples=200)
    def test_gram_split_agrees_with_svd_split(self, seed, eps):
        # A product state moved off the product set by eps: the Gram split must
        # fail (0.0) exactly when the SVD split does, and otherwise report the
        # fidelity of the SVD split's product.
        g_rng = np.random.default_rng(seed)
        n = int(g_rng.integers(1, 11))
        amps = random_product(g_rng, n).amps + eps * random_ket_amps(g_rng, 1 << n)
        state = Ket(amps / np.linalg.norm(amps), (2,) * n, normalized=True)
        got = _product_factorization(state.amps)
        want = svd_product_factorization(state)
        assert (got == 0.0) == (want is None)
        if want is not None:
            assert got == pytest.approx(fidelity(state, want), abs=1e-12)

    def test_fidelity_is_the_squared_remainder_norm(self):
        # cos t|00> + sin t|11> splits with s1 = sin t below 3e-6; its closest
        # product |00> has fidelity cos^2 t, which the remainder's norm alone misses.
        t = 2e-6
        state = Ket(np.array([math.cos(t), 0.0, 0.0, math.sin(t)]), (2, 2), normalized=True)
        assert _product_factorization(state.amps) == pytest.approx(math.cos(t) ** 2, abs=1e-14)

    def test_failed_split_allocates_no_copy(self):
        # GHZ fails at its first split, which reads the 1 MiB of amplitudes
        # in place; the SVD split copied them and allocated its factors.
        state = ghz(16)
        tracemalloc.start()
        try:
            assert _product_factorization(state.amps) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.amps.nbytes // 16


def symmetric_state(g_rng, n, kind):
    """A permutation-symmetric n-qubit state of the named kind, with a random global phase."""
    k = int(g_rng.integers(0, n + 1))
    if kind == "dicke_sum":
        ks = g_rng.choice(n + 1, size=int(g_rng.integers(1, n + 2)), replace=False)
        state = dicke_sum(n, {int(j): complex(g_rng.normal(), g_rng.normal()) for j in ks})
    elif kind == "product":
        state = tensor([Ket(random_ket_amps(g_rng, 2), (2,), normalized=True)] * n)
    else:
        build = {"ghz": ghz, "w": w, "flipped_w": lambda m: bitflip_all(w(m)), "g": g, "plus": plus_state}
        build |= {"dicke": lambda m: dicke(m, k), "g_general": lambda m: g_general(m, k)}
        state = build[kind](n)
    return Ket(np.exp(2j * np.pi * g_rng.random()) * state.amps, state.factor_dims, normalized=True)


class TestClassifySymmetric:
    KINDS = ("dicke_sum", "product", "plus", "dicke", "ghz", "w", "flipped_w", "g", "g_general")

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12), st.sampled_from(KINDS))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_classify(self, seed, n, kind):
        self.assert_agrees(seed, n, kind)

    def test_phase_lead_is_the_first_string_above_the_floor(self):
        # This product's weight-1 overlap, 1.12e-12, is above the floor while each of its
        # strings, 3.7e-13, is not: both sides must rotate by the weight-2 phase, the first
        # amplitude classify finds, or the real parts they keep differ (|c_9| 0.981 against 0.154).
        self.assert_agrees(5083, 9, "product")

    def assert_agrees(self, seed, n, kind):
        # The overlaps are summed from the phased amplitudes, so the phase fix is exercised.
        g_rng = np.random.default_rng(seed)
        state = symmetric_state(g_rng, n if kind in self.KINDS[:4] else max(n, 2), kind)
        n = len(state.factor_dims)
        wts = hamming_weights(n)
        overlaps = np.array([np.sum(state.amps[wts == j]) / math.sqrt(math.comb(n, j)) for j in range(n + 1)])
        got = classify_symmetric(n, overlaps)
        want = classify(state)
        assert (got.family, got.n, got.k, got.up_to_bitflip) == (want.family, want.n, want.k, want.up_to_bitflip)
        assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12)
        assert got.decomposition.coeffs == pytest.approx(want.decomposition.coeffs, abs=1e-12)
        assert (got.decomposition.residual < 1e-10) == (want.decomposition.residual < 1e-10)
        assert got.decomposition.residual == pytest.approx(want.decomposition.residual, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 22])
    def test_plus_overlaps_are_an_exact_product(self, n):
        # |+>^n has the real overlaps 2^(-n/2) sqrt(C(n, k)); n = 22 is past every tier-1 register.
        overlaps = 2.0 ** (-n / 2) * np.sqrt([math.comb(n, k) for k in range(n + 1)])
        got = classify_symmetric(n, overlaps)
        assert (got.family, got.decomposition.residual) == (Family.PRODUCT, 0.0)
        assert got.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_zero_overlaps_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            classify_symmetric(3, np.full(4, 1e-13))


class TestClassifyNeedsNoSvd:
    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("classify called np.linalg.svd")

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_plus_state_branches(self, monkeypatch, coupling):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", self.refuse)
            runs = [
                run_module(plus_state(n), ModuleConfig(n, d, coupling))
                for n in range(1, 11)
                for d in range(2, 8)
            ]
        for records in runs:
            for rec in records:
                if rec.post_state is not None:
                    want = full_vector_classify(rec.post_state)
                    assert rec.classification.label() == want.label()
                    assert rec.classification.up_to_bitflip == want.up_to_bitflip

    def test_random_and_product_states(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self.refuse)
        g_rng = np.random.default_rng(7)
        for n in range(1, 11):
            for _ in range(5):
                state = Ket(random_ket_amps(g_rng, 1 << n), (2,) * n, normalized=True)
                assert classify(state).family in Family
                assert classify(random_product(g_rng, n)).family is Family.PRODUCT


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
