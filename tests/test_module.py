"""Unit tests for the coupling module: sequential statevector and projector paths."""

import itertools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity.linalg import (
    Ket,
    Operator,
    fidelity,
    fourier_ket,
    hadamard,
    hamming_weights,
    omega,
    pauli_x,
    pauli_z,
    plus_state,
    squared_norm,
    tensor,
    weight_order,
)
from qparity.module import (
    ZERO_PROBABILITY_ATOL,
    CouplingKind,
    ModuleConfig,
    ResourceLimitError,
    _branches,
    _clock,
    _fourier_readout,
    _hadamard_rows,
    _real_constant,
    build_projectors,
    outcome_distribution,
    projector_dim,
    run_module,
    statevector_qubit_limit,
)
from qparity import module, states
from qparity.linalg import NORM_ATOL
from qparity.solver import ORBIT_ATOL, admissible_state, roots_of_unity_spec
from qparity.states import FIDELITY_THRESHOLD, Family, dicke, dicke_sum, ghz, w

from conftest import basis_ket, check_orbit, generator_views, random_ket_amps


def random_register(seed, n):
    g = np.random.default_rng(seed)
    return Ket(random_ket_amps(g, 1 << n), (2,) * n, normalized=True)


def fourier_sum_projectors(n, d, coupling):
    """Test-only oracle: P_i = d^(-1) sum_k w^(-ik) A^k summed term by term.

    For the phase coupling A^k is diagonal with entries w^(k wt(x)); for the
    shift coupling it is the n-fold Kronecker power of H diag(1, w^k) H.
    """
    om = omega(d)
    if coupling is CouplingKind.PHASE:
        wts = hamming_weights(n).astype(int)  # wts - i must not wrap around in uint8
        return [np.diag(sum(om ** (k * (wts - i)) for k in range(d)) / d) for i in range(d)]
    h = hadamard().entries
    powers = []
    for k in range(d):
        power = np.ones((1, 1), dtype=complex)
        for _ in range(n):
            power = np.kron(power, h @ np.diag([1.0, om**k]) @ h)
        powers.append(power)
    return [sum(om ** (-i * k) * powers[k] for k in range(d)) / d for i in range(d)]


def default_ancilla(d, coupling, index=0):
    """|u_index> for the phase coupling, |index> for the shift coupling."""
    return fourier_ket(d, index) if coupling is CouplingKind.PHASE else basis_ket((d,), index)


def default_parities(d, coupling):
    """The parity outcome m of the default ancilla heralds: -m mod d (phase), m (shift)."""
    return tuple((-m) % d if coupling is CouplingKind.PHASE else m for m in range(d))


def coupling_step(d, coupling):
    """V, the ancilla step of one excitation: Z_d (phase) or X_d (shift), as a dense Operator."""
    return pauli_x(d) if coupling is CouplingKind.SHIFT else pauli_z(d)


def coupling_gate(d, coupling):
    """|0><0| x I + |1><1| x V with V = Z_d (phase), or its Hadamard conjugate on the qubit with V = X_d (shift)."""
    h = hadamard().entries if coupling is CouplingKind.SHIFT else np.eye(2)
    step = coupling_step(d, coupling).entries
    return np.kron(h @ np.diag([1.0, 0.0]) @ h, np.eye(d)) + np.kron(h @ np.diag([0.0, 1.0]) @ h, step)


def couple_once(joint, qubit, coupling):
    """Test-only sequential oracle: one qubit-ancilla interaction on a joint state.

    The ancilla is the last tensor factor.  Couplings to distinct qubits
    commute, so the application order never matters.
    """
    dims = joint.factor_dims
    n, d = len(dims) - 1, dims[-1]
    t = np.moveaxis(joint.amps.reshape(dims), (qubit, n), (0, 1))
    t = np.tensordot(coupling_gate(d, coupling).reshape(2, d, 2, d), t, axes=([2, 3], [0, 1]))
    return Ket(np.moveaxis(t, (0, 1), (qubit, n)).reshape(-1), dims, normalized=joint.normalized)


def sequential_joint(state, coupling, ancilla):
    """Joint register+ancilla state after coupling every qubit once, in qubit order."""
    joint = tensor([state, ancilla])
    for q in range(len(state.factor_dims)):
        joint = couple_once(joint, q, coupling)
    return joint


# The oracle's blocks hold this many amplitudes per real array; its bits do not depend on it.
ORACLE_BLOCK_ENTRIES = 1 << 15


def phase_kernel(amps, prep, clock, n):
    """Test-only unfused oracle: the register-ancilla state after the phase coupling,
    as a C-contiguous (2^n, d) matrix.

    Entry (x, j) is a0 z_j^wt(x), with a0 = amps[x] prep[j] as ``np.kron``
    forms it and z_j = ``clock[j]``.  The product is taken one excitation at
    a time, each as (re, im) <- (re zr - im zi, re zi + im zr) with every
    product and sum rounded on its own.  The rows are visited in the order of
    ``weight_order``, a block at a time, and rewritten in place: within a
    block, level k multiplies the strings of weight >= k, for all ancilla
    levels at once.
    """
    order, starts = weight_order(n)
    mat = np.kron(amps, prep).reshape(1 << n, -1)
    zr, zi = clock.real[:, None], clock.imag[:, None]
    size = max(1, ORACLE_BLOCK_ENTRIES // prep.size)
    for first in range(0, 1 << n, size):
        rows = order[first : first + size]
        block = mat[rows]
        re, im = block.real.T.copy(), block.imag.T.copy()
        for start in starts[1 : n + 1]:
            if start >= first + rows.size:
                break
            r, i = re[:, max(start - first, 0) :], im[:, max(start - first, 0) :]
            t = i * zi
            i *= zr
            i += r * zi
            r *= zr
            r -= t
        mat.real[rows] = re.T
        mat.imag[rows] = im.T
    return mat


def phase_heralding(d, prep):
    """The prep, readout rows and heralded parities of a phase config: the Fourier basis
    for the default ancilla, the orbit Z_d^m|prep> (outcome m, parity m) for a custom one."""
    if prep is None:
        vecs = np.array([fourier_ket(d, m).amps for m in range(d)])
        return vecs[0], vecs, default_parities(d, CouplingKind.PHASE)
    return prep.amps, check_orbit(pauli_z(d), prep, d).orbit, tuple(range(d))


def unfused_phase_branches(amps, n, prep, vecs):
    """Test-only oracle: each phase branch as the full joint matrix contracted with a readout row."""
    mat = phase_kernel(amps, prep, np.diag(pauli_z(prep.size).entries), n)
    return [mat @ v.conj() for v in vecs]


def mask_branches(amps, n, parities):
    """Test-only oracle: outcome m's branch is amps on the strings of weight == parities[m]
    (mod d) and 0 elsewhere; its probability is that class's exact sum of |amps|^2, by
    ``math.fsum`` (compare with ``assert_class_probability``)."""
    d = len(parities)
    classes = hamming_weights(n).astype(int) % d
    squares = np.abs(amps) ** 2
    pairs = []
    for parity in parities:
        branch = np.zeros(amps.shape, dtype=complex)
        branch[classes == parity] = amps[classes == parity]
        pairs.append((math.fsum(squares[classes == parity]), branch))
    return pairs


def assert_class_probability(prob, exact, n, where):
    """The kernel sums a class's |amps|^2 pairwise within each weight, 2^n terms at most,
    and adds the weights exactly: within (n + 8) 2^-53 of the exact sum, for a total of
    at most 1 (the pairwise sum's bound with eight-way unrolled leaves)."""
    assert abs(prob - exact) <= (n + 8) * 2.0**-53, where


def stacked_butterfly(a, n):
    """Test-only reference: H^(x)n of a vector of 2^n amplitudes as a new array, one stacked
    copy per qubit pass, most significant bit first."""
    t = np.array(a, dtype=complex)
    for q in range(n):
        v = t.reshape(1 << q, 2, -1)
        t = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
    return t.reshape(a.shape) * 2.0 ** (-n / 2)


def copying_shift_branches(amps, n, parities):
    """Test-only oracle: the shift kernel as the mask of H^(x)n amps, each nonzero branch
    then transformed back, both by the copying ``stacked_butterfly``."""
    for prob, branch in mask_branches(stacked_butterfly(amps, n), n, parities):
        yield prob, (stacked_butterfly(branch, n) if prob >= ZERO_PROBABILITY_ATOL else None)


def chain_pairs(chains):
    """The (probability, branch) pairs of the per-excitation chain's branches: each
    probability is the branch's ``squared_norm``."""
    return [(squared_norm(chain), chain) for chain in chains]


def kernel_posts(amps, config):
    """The kernel's (probability, post-state amplitudes) pairs for ``config``, read as soon as
    each branch is yielded; the amplitudes are None for a zero branch."""
    amps = np.array(amps)
    amps.setflags(write=False)
    got = _branches(amps, _real_constant(amps), config, False)
    return [(prob, None if post is None else post.amps) for _, prob, post, _ in got]


def assert_post_bits(post, branch, prob, where):
    """``post`` has the bits of the oracle's unnormalized ``branch``, as float pairs, times
    1 / math.sqrt of the probability the kernel reports."""
    want = branch.view(np.float64) * (1.0 / math.sqrt(prob))
    assert np.array_equal(post.view(np.uint64), want.view(np.uint64)), where


def assert_phase_bits(got, expect, chains, where, on_chain):
    """The phase kernel's post-states keep the expected oracle's branch bits over the root of
    their probability, within 1e-14 of the chain's values once scaled back; a mask
    probability is within ``assert_class_probability``'s bound of the exact sum."""
    n = chains[0].size.bit_length() - 1
    for (prob, post), (p0, b0), chain in zip(got, expect, chains, strict=True):
        if on_chain:
            assert prob == p0, where
        else:
            assert_class_probability(prob, p0, n, where)
        if prob < ZERO_PROBABILITY_ATOL:  # weight classes above n are empty
            assert post is None, where
            continue
        assert_post_bits(post, b0, prob, where)
        assert np.abs(post * math.sqrt(prob) - chain).max() <= 1e-14, where


def full_vector_classify(post):
    """Test-only reference: ``classify`` of a post-state's 2^n amplitudes, decomposed in full."""
    return states.classify(Ket(post.amps, post.factor_dims, normalized=True))


def assert_classified_as_full_vector(cls, post):
    """``cls`` has ``full_vector_classify(post)``'s label and flip flag, and its Dicke
    coefficients and residual within 1e-12."""
    want = full_vector_classify(post)
    assert (cls.label(), cls.up_to_bitflip) == (want.label(), want.up_to_bitflip), (cls, want)
    got, ref = cls.decomposition, want.decomposition
    for k in got.coeffs.keys() | ref.coeffs.keys():
        assert abs(got.coeffs.get(k, 0.0) - ref.coeffs.get(k, 0.0)) <= 1e-12, (k, got.coeffs, ref.coeffs)
    assert abs(got.residual - ref.residual) <= 1e-12, (got.residual, ref.residual)


def random_dicke_sum(g, n):
    """sum_k c_k D(n, k) with seeded random complex c_k: a weight-symmetric register."""
    return dicke_sum(n, {k: complex(*g.normal(size=2)) for k in range(n + 1)})


def near_miss(n):
    """|+>^n with its last amplitude moved by one ulp: only the last block of the
    constant check tells it from |+>^n."""
    amps = plus_state(n).amps.copy()
    amps[-1] = np.nextafter(amps[-1].real, np.inf)
    return amps


def phase_kernel_registers(g, n):
    """Amplitudes for the phase-kernel bit tests, keyed by kind, random first.

    |+>^n is the only real constant among them, so the default phase ancilla runs the
    chain on it alone; the Dicke sum, the near miss and the random register take the mask.
    """
    amps = {"random": random_ket_amps(g, 1 << n), "plus": plus_state(n).amps, "dicke": random_dicke_sum(g, n).amps, "near-miss": near_miss(n)}
    for kind, a in amps.items():
        assert (_real_constant(a) is None) == (kind != "plus"), kind
    return amps


def orbit_ancilla(g, d, coupling):
    """A random ancilla whose orbit under Z_d (phase) or X_d (shift) is orthonormal.

    Z_d needs equal weight on every level; X_d needs equal weight on every
    Fourier vector, which X_d only rephases.
    """
    phases = np.exp(2j * np.pi * g.random(d)) / math.sqrt(d)
    if coupling is CouplingKind.PHASE:
        return Ket(phases, (d,), normalized=True)
    return Ket(sum(p * fourier_ket(d, k).amps for k, p in enumerate(phases)), (d,), normalized=True)


def view_structure_failures(pset, views):
    """The classes whose view is not exactly the real matrix of the class's generator:
    diag(g_i) (phase) or g_i[x ^ y] (shift), and zero for a class no weight reaches."""
    bad = []
    for i, (view, want) in enumerate(zip(views, generator_views(pset), strict=True)):
        if view.dtype != np.float64 or want.imag.any() or not np.array_equal(view, want.real):
            bad.append(i)
    return bad


def _swapped_rows(view):
    # Row 0, the generator, is kept; the view is no longer a function of x XOR y.
    view[[1, 2]] = view[[2, 1]]


def _off_diagonal(view):
    view[0, 1] = 0.5


def _tiny_off_diagonal(view):
    # 1e-17 moves no product of views beyond any law tolerance, but the view is not diagonal.
    view[0, 1] = 1e-17


VIEW_MUTATIONS = [(CouplingKind.SHIFT, _swapped_rows), (CouplingKind.PHASE, _off_diagonal), (CouplingKind.PHASE, _tiny_off_diagonal)]


class TestProjectors:
    def test_two_qubit_parity_projector_is_zz_average(self):
        # P_0 for n=2, d=2 under the phase coupling is (I + Z x Z)/2.
        pset = build_projectors(2, 2, CouplingKind.PHASE)
        assert np.allclose(pset.projectors[0].entries, np.diag([1.0, 0.0, 0.0, 1.0]))
        assert np.allclose(pset.projectors[1].entries, np.diag([0.0, 1.0, 1.0, 0.0]))

    def test_ranks_count_weight_classes(self):
        pset = build_projectors(3, 3, CouplingKind.PHASE)
        assert pset.dims == (2, 3, 3)
        for i in range(3):
            assert pset.dims[i] == projector_dim(i, 3, 3)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 3), (5, 2), (4, 6)])
    def test_projector_algebra(self, n, d, coupling):
        pset = build_projectors(n, d, coupling)
        dim = 1 << n
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(pset.projectors):
            total += p.entries
            for j, q in enumerate(pset.projectors):
                expect = p.entries if i == j else np.zeros((dim, dim))
                assert np.allclose(p.entries @ q.entries, expect, atol=1e-10)
        assert np.allclose(total, np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 3), (5, 4)])
    def test_shift_projectors_are_hadamard_conjugates(self, n, d):
        h_n = 1.0
        h1 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        for _ in range(n):
            h_n = np.kron(h_n, h1)
        phase = build_projectors(n, d, CouplingKind.PHASE)
        shift = build_projectors(n, d, CouplingKind.SHIFT)
        for p, q in zip(phase.projectors, shift.projectors):
            assert np.allclose(q.entries, h_n @ p.entries @ h_n, atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_xor_view_matches_dense_hadamard_conjugate(self, n):
        # The shift view is gathered at x XOR y; the dense form multiplies.
        hyp = tensor([hadamard()] * n).entries
        for d in range(2, 8):
            pset = build_projectors(n, d, CouplingKind.SHIFT)
            for i, p in enumerate(pset.projectors):
                dense = (hyp * (pset.classes == i)) @ hyp
                assert np.abs(p.entries - dense).max() <= 1e-14
                assert not p.entries.imag.any()

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_projectors_match_fourier_sum_oracle(self, n, coupling):
        for d in range(2, 7):
            pset = build_projectors(n, d, coupling)
            for p, ref in zip(pset.projectors, fourier_sum_projectors(n, d, coupling), strict=True):
                assert np.abs(p.entries - ref).max() <= 1e-12

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_mask_route_matches_fourier_sum_oracle(self, n, coupling):
        state = random_register(100 + n, n)
        for d in range(2, 7):
            refs = fourier_sum_projectors(n, d, coupling)
            branches = [ref @ state.amps for ref in refs]
            probs = outcome_distribution(state, n, d, coupling)
            expect = [float(np.vdot(b, b).real) for b in branches]
            assert np.abs(np.array(probs) - expect).max() <= 1e-12
            step = coupling_step(d, coupling).entries
            for index in range(d):
                anc = default_ancilla(d, coupling, index).amps
                joint = np.zeros((1 << n) * d, dtype=complex)
                for b in branches:
                    joint += np.kron(b, anc)
                    anc = step @ anc
                got = sequential_joint(state, coupling, default_ancilla(d, coupling, index)).amps
                assert np.abs(got - joint).max() <= 1e-12

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_view_builds_only_the_nonempty_classes(self, coupling):
        # A weight is at most n, so at d = 1000 only n + 1 classes hold strings; the rest
        # share one frozen zero, and the view allocates n + 2 matrices, not d.  Building
        # all d views peaked at 2.4 MB here.
        n, d = 4, 1000
        pset = build_projectors(n, d, coupling)
        tracemalloc.start()
        try:
            views = pset.projectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # n + 2 matrices, plus the tuple and lists of d references.
        assert peak < (n + 2) * (8 << 2 * n) + 32 * d
        zero = views[n + 1]
        assert all(v is zero for v in views[n + 1 :])
        assert not zero.entries.any() and not zero.entries.flags.writeable
        # The nonempty classes keep the bits of the view at d = n + 1, where every class holds strings.
        for view, full in zip(views, build_projectors(n, n + 1, coupling).projectors, strict=False):
            assert np.array_equal(view.entries.view(np.uint64), full.entries.view(np.uint64))

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_views_are_exactly_the_matrices_of_their_generators(self, n, coupling):
        for d in range(2, n + 3):
            pset = build_projectors(n, d, coupling)
            assert pset.generators.shape == (min(d, n + 1), 1 << n)
            assert not pset.generators.flags.writeable
            assert view_structure_failures(pset, [p.entries for p in pset.projectors]) == []

    @pytest.mark.parametrize("coupling,mutation", VIEW_MUTATIONS, ids=[m.__name__.lstrip("_") for _, m in VIEW_MUTATIONS])
    def test_each_view_mutation_fails_the_structure(self, coupling, mutation):
        # At d = 2 the shift generators are nonzero only at 0 and at 1...1, so rows 1 and 2
        # differ once n >= 3.
        for n in range(3, 7):
            pset = build_projectors(n, 2, coupling)
            views = [p.entries.copy() for p in pset.projectors]
            mutation(views[0])
            assert not np.array_equal(views[0], pset.projectors[0].entries)
            assert view_structure_failures(pset, views) == [0]

    def test_rank_accounting_is_complete(self):
        for n in range(1, 9):
            for d in range(2, n + 2):
                assert sum(projector_dim(i, n, d) for i in range(d)) == 1 << n

    def test_projector_dim_bounds(self):
        with pytest.raises(IndexError):
            projector_dim(3, 4, 3)
        with pytest.raises(ValueError):
            projector_dim(0, 0, 3)


class TestModuleConfig:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            ModuleConfig(0, 3)
        with pytest.raises(ValueError):
            ModuleConfig(3, 1)

    def test_ancilla_prep_validation(self):
        with pytest.raises(ValueError):
            ModuleConfig(2, 3, ancilla_prep=basis_ket((2,), 0))
        with pytest.raises(ValueError):
            ModuleConfig(2, 2, ancilla_prep=Ket(np.array([1.0, 1.0]), (2,)))

    @pytest.mark.parametrize(
        "prep,message",
        [
            (basis_ket((2,), 0), "has dimension 2, expected 3"),
            (Ket(np.array([1.0, 1.0, 1.0]), (3,)), "must be normalized"),
            (Ket(np.array([np.nan, 1.0, 0.0]), (3,)), "must be normalized"),
            (basis_ket((3,), 0), "does not generate an orthonormal orbit"),
        ],
        ids=["dimension", "unnormalized", "nan", "non-orthonormal"],
    )
    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_inadmissible_ancilla_rejected_at_construction(self, prep, message, coupling):
        if coupling is CouplingKind.SHIFT and message.startswith("does not"):
            prep = fourier_ket(3, 0)  # an eigenvector of X_3, as |0> is of Z_3
        with pytest.raises(ValueError, match=message):
            ModuleConfig(2, 3, coupling, ancilla_prep=prep)

    def test_orbit_check_admits_every_seed_the_norm_guard_admits(self):
        # The Gram diagonal is the squared norm, 1 +- (2 NORM_ATOL + NORM_ATOL^2) at the guard's edge.
        assert ORBIT_ATOL >= 2 * NORM_ATOL + NORM_ATOL**2
        for scale in (1 - 0.99 * NORM_ATOL, 1 + 0.99 * NORM_ATOL):
            prep = Ket(scale * fourier_ket(3, 1).amps, (3,))
            ModuleConfig(2, 3, ancilla_prep=prep)
            orbit = check_orbit(pauli_z(3), prep, 3).orbit
            # Admitted, though its Gram matrix misses I by more than a bound of NORM_ATOL would allow.
            assert np.abs(orbit.conj() @ orbit.T - np.eye(3)).max() > NORM_ATOL

    @pytest.mark.parametrize("scale", [1 - 0.9 * NORM_ATOL, 1 + 0.9 * NORM_ATOL])
    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_every_input_the_norm_guards_admit_runs(self, coupling, scale):
        # The probabilities total |state|^2 whatever the ancilla: 1 +- 2 NORM_ATOL at the
        # register guard's edge.  A custom prep does not scale them.
        n, d = 3, 3
        state = Ket(scale * plus_state(n).amps, (2,) * n)
        prep = Ket(scale * default_ancilla(d, coupling, 1).amps, (d,))
        for config in (ModuleConfig(n, d, coupling), ModuleConfig(n, d, coupling, ancilla_prep=prep)):
            records = run_module(state, config, classify_states=False)
            assert sum(r.probability for r in records) == pytest.approx(scale**2, abs=1e-14)
        assert sum(outcome_distribution(state, n, d, coupling)) == pytest.approx(scale**2, abs=1e-14)

    def test_default_ancilla_states(self):
        # The default ancilla (Fourier readout row 0, or |0>) is admitted by its orbit under
        # the step: supplying it as a custom preparation relabels the outcomes but heralds
        # the same branches.
        for coupling, d in itertools.product(CouplingKind, range(2, 6)):
            prep = default_ancilla(d, coupling)
            if coupling is CouplingKind.PHASE:
                assert np.array_equal(_fourier_readout(d)[0], prep.amps)
            assert check_orbit(coupling_step(d, coupling), prep, d).orthonormal
            state = random_register(d, 3)
            default = run_module(state, ModuleConfig(3, d, coupling), classify_states=False)
            custom = run_module(state, ModuleConfig(3, d, coupling, ancilla_prep=prep), classify_states=False)
            by_parity = {r.parity: r for r in custom}
            for r in default:
                assert r.probability == pytest.approx(by_parity[r.parity].probability, abs=1e-12)
                if not r.zero_probability:
                    assert fidelity(r.post_state, by_parity[r.parity].post_state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_cached_set_up_is_read_only(self, monkeypatch, coupling):
        # run_module shares one clock and one Fourier readout per d, equal by value to what
        # they are built from; the default ancilla (readout row 0, or |0>) is admitted by
        # orbit_deviation, and the default outcomes carry the default parities on both routes.
        shift = coupling is CouplingKind.SHIFT
        g = np.random.default_rng(29)
        deviations = []
        orbit_deviation = module.orbit_deviation
        # An earlier construction of a default prep would answer from the admission cache.
        module._orbit_verdict.cache_clear()

        def recorded(*args):
            deviations.append(orbit_deviation(*args))
            return deviations[-1]

        monkeypatch.setattr(module, "orbit_deviation", recorded)
        for d in range(2, 8):
            clock = _clock(d)
            assert clock is _clock(d) and not clock.entries.flags.writeable
            assert clock.unitary and np.array_equal(clock.entries, pauli_z(d).entries)
            readout = _fourier_readout(d)
            assert readout is _fourier_readout(d) and not readout.flags.writeable
            assert np.array_equal(readout, [fourier_ket(d, m).amps for m in range(d)])
            default = basis_ket((d,), 0) if shift else Ket(readout[0], (d,))
            ModuleConfig(3, d, coupling, ancilla_prep=default)
            assert deviations.pop() <= 1e-14 and not deviations, d
            for amps in (plus_state(3).amps, random_ket_amps(g, 8)):
                got = _branches(amps, _real_constant(amps), ModuleConfig(3, d, coupling))
                assert tuple(parity for parity, *_ in got) == default_parities(d, coupling)
            assert coupling.measurement_basis == ("computational" if shift else "fourier")

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_warm_custom_ancilla_run_builds_no_operator(self, monkeypatch, coupling):
        prep = default_ancilla(3, coupling, 1)
        config = ModuleConfig(3, 3, coupling, ancilla_prep=prep)
        run_module(plus_state(3), config, classify_states=False)
        built = []
        post_init = Operator.__post_init__

        def counted(op):
            built.append(op)
            post_init(op)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        run_module(plus_state(3), config, classify_states=False)
        assert built == []


class TestRunModuleHeralding:
    def test_three_qubit_qutrit_branches(self):
        records = run_module(plus_state(3), ModuleConfig(3, 3))
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability_exact == Fraction(1, 4)
        assert by_parity[1].probability_exact == Fraction(3, 8)
        assert by_parity[2].probability_exact == Fraction(3, 8)
        assert fidelity(by_parity[0].post_state, ghz(3)) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(by_parity[1].post_state, w(3)) == pytest.approx(1.0, abs=1e-12)
        flipped_w = Ket(w(3).amps[::-1], (2, 2, 2), normalized=True)
        assert fidelity(by_parity[2].post_state, flipped_w) == pytest.approx(1.0, abs=1e-12)

    def test_basis_definite_input_collapses_parity(self):
        # a|00> + b|01> has weight 0 and weight 1 components, so the module
        # heralds parity 0 with |a|^2 and parity 1 with |b|^2, leaving the
        # matching basis vector behind.
        a, b = 0.6, 0.8
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[1] = a, b
        records = run_module(Ket(amps, (2, 2), normalized=True), ModuleConfig(2, 2))
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability == pytest.approx(a**2, abs=1e-12)
        assert by_parity[1].probability == pytest.approx(b**2, abs=1e-12)
        assert fidelity(by_parity[0].post_state, basis_ket((2, 2), 0)) == pytest.approx(1.0)
        assert fidelity(by_parity[1].post_state, basis_ket((2, 2), 1)) == pytest.approx(1.0)

    def test_five_qubit_quartit_parity_one_branch(self):
        # Weight-1 and weight-5 strings survive: (sqrt(5) W_5 + |11111>)/sqrt(6).
        records = run_module(plus_state(5), ModuleConfig(5, 4))
        branch = next(r for r in records if r.parity == 1)
        assert branch.probability_exact == Fraction(6, 32)
        expect = (math.sqrt(5) * w(5).amps + basis_ket((2,) * 5, 31).amps) / math.sqrt(6)
        target = Ket(expect, (2,) * 5, normalized=True)
        assert fidelity(branch.post_state, target) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branches_flagged(self):
        # GHZ_3 only populates weights 0 and 3, both parity 0 mod 3.
        records = run_module(ghz(3), ModuleConfig(3, 3))
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability == pytest.approx(1.0, abs=1e-12)
        for parity in (1, 2):
            r = by_parity[parity]
            assert r.zero_probability
            assert r.post_state is None
            assert r.classification is None
            assert r.probability < 1e-12

    def test_shift_coupling_heralds_plus_basis_weight(self):
        records = run_module(plus_state(3), ModuleConfig(3, 3, CouplingKind.SHIFT))
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability == pytest.approx(1.0, abs=1e-12)
        assert by_parity[0].probability_exact == Fraction(1)
        assert by_parity[1].probability_exact == Fraction(0)
        assert by_parity[2].probability_exact == Fraction(0)

    def test_shift_on_computational_basis_mirrors_phase_on_plus(self):
        # |000> is the shift-coupling analogue of |+++>: weights spread
        # binomially in the conjugate basis.
        records = run_module(basis_ket((2,) * 3, 0), ModuleConfig(3, 3, CouplingKind.SHIFT))
        probs = sorted(r.probability for r in records)
        assert probs == pytest.approx(sorted([1 / 4, 3 / 8, 3 / 8]), abs=1e-12)

    def test_branch_probabilities_sum_to_one(self, rng):
        for n, d in [(2, 2), (3, 4), (4, 3), (5, 5)]:
            state = Ket(random_ket_amps(rng, 1 << n), (2,) * n, normalized=True)
            records = run_module(state, ModuleConfig(n, d), classify_states=False)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)
            assert sorted(r.outcome_label for r in records) == list(range(d))
            assert sorted(r.parity for r in records) == list(range(d))

    def test_records_sortable_by_outcome(self):
        records = run_module(plus_state(2), ModuleConfig(2, 3))
        assert [r.outcome_label for r in records] == [0, 1, 2]


class TestExactProbabilities:
    def test_exact_only_for_uniform_plus_input(self, rng):
        state = Ket(random_ket_amps(rng, 8), (2, 2, 2), normalized=True)
        records = run_module(state, ModuleConfig(3, 3), classify_states=False)
        assert all(r.probability_exact is None for r in records)

    def test_exact_matches_float(self):
        for n, d in [(2, 2), (4, 3), (6, 4), (5, 5)]:
            records = run_module(plus_state(n), ModuleConfig(n, d), classify_states=False)
            for r in records:
                assert r.probability_exact is not None
                assert float(r.probability_exact) == pytest.approx(r.probability, abs=1e-12)

    def test_custom_prep_disables_exact(self):
        config = ModuleConfig(2, 2, ancilla_prep=fourier_ket(2, 1))
        records = run_module(plus_state(2), config, classify_states=False)
        assert all(r.probability_exact is None for r in records)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_plus_moved_by_one_ulp_reports_no_exact_probability(self, coupling):
        # Exact probabilities need every amplitude to have the bits of one real, positive
        # value; a register one ulp off |+>^n is not |+>^n, however close.
        for n in (1, 4, 9):
            for x in (0, (1 << n) - 1):
                amps = plus_state(n).amps.copy()
                amps[x] = np.nextafter(amps[x].real, np.inf)
                records = run_module(Ket(amps, (2,) * n, normalized=True), ModuleConfig(n, 3, coupling), classify_states=False)
                assert all(r.probability_exact is None for r in records), (n, x)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_any_positive_constant_register_reports_exact_probabilities(self, coupling):
        # At odd n, 1/sqrt(2^n) is one ulp off 2^(-n/2); both registers are |+>^n.
        for n in (1, 3, 5, 7, 9):
            value = 1 / np.sqrt(2**n)
            assert value != 2.0 ** (-n / 2) or n == 1, n
            state = Ket(np.full(1 << n, value, dtype=complex), (2,) * n, normalized=True)
            records = run_module(state, ModuleConfig(n, 3, coupling), classify_states=False)
            expect = run_module(plus_state(n), ModuleConfig(n, 3, coupling), classify_states=False)
            assert [r.probability_exact for r in records] == [r.probability_exact for r in expect], n
            assert all(r.probability_exact is not None for r in records), n
        minus = Ket(-plus_state(3).amps, (2,) * 3, normalized=True)
        assert all(r.probability_exact is None for r in run_module(minus, ModuleConfig(3, 3, coupling)))


class TestAdmissionCache:
    """``ModuleConfig`` runs the orbit test once per (d, coupling, amplitude bytes)."""

    @pytest.fixture
    def orbit_tests(self, monkeypatch):
        """The arguments of every ``orbit_deviation`` call, from an empty admission cache."""
        calls = []
        orbit_deviation = module.orbit_deviation
        monkeypatch.setattr(module, "orbit_deviation", lambda *args: calls.append(args) or orbit_deviation(*args))
        module._orbit_verdict.cache_clear()
        yield calls
        module._orbit_verdict.cache_clear()

    def test_one_orbit_test_per_distinct_preparation(self, orbit_tests):
        # |u_1> is admitted under Z_3 and refused under X_3, of which it is an eigenvector;
        # |1> the other way round.  A prep rebuilt from the same amplitudes shares the verdict.
        preps = [fourier_ket(3, 1), basis_ket((3,), 1), fourier_ket(4, 1)]
        keys = set()
        for _ in range(3):
            for prep, coupling in itertools.product(preps, CouplingKind):
                rebuilt = Ket(prep.amps.copy(), prep.factor_dims)
                for ancilla in (prep, rebuilt):
                    try:
                        ModuleConfig(2, prep.dim, coupling, ancilla)
                    except ValueError as exc:
                        assert "orthonormal orbit" in str(exc)
                keys.add((prep.dim, coupling, prep.amps.tobytes()))
        assert len(orbit_tests) == len(keys) == 6

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_prep_moved_by_one_ulp_is_tested_again(self, orbit_tests, coupling):
        prep = default_ancilla(5, coupling, 2)
        moved = prep.amps.copy()
        moved.real[2] = np.nextafter(moved.real[2], 2.0)
        ModuleConfig(3, 5, coupling, prep)
        ModuleConfig(3, 5, coupling, Ket(moved, (5,)))
        ModuleConfig(3, 5, coupling, prep)
        assert len(orbit_tests) == 2

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_refused_prep_is_refused_on_every_construction(self, orbit_tests, coupling):
        # An eigenvector of the step: |0> under Z_3, |u_0> under X_3.
        prep = basis_ket((3,), 0) if coupling is CouplingKind.PHASE else fourier_ket(3, 0)
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="does not generate an orthonormal orbit") as caught:
                ModuleConfig(2, 3, coupling, prep)
            messages.append(str(caught.value))
        assert len(orbit_tests) == 1
        assert messages == messages[:1] * 3 and "Gram deviation" in messages[0]

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_cap_is_read_on_every_construction(self, monkeypatch, orbit_tests, coupling):
        # A 16-level step, 16 * 16^2 bytes, fits 8 qubits and not 7: an admitted prep is
        # refused once the cap is lowered, and admitted again, untested, once it is raised.
        prep = default_ancilla(16, coupling, 1)
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        ModuleConfig(2, 16, coupling, prep)
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "7")
        with pytest.raises(ResourceLimitError, match=r"limited to 2048 bytes \(7 qubits\); a custom 16-level ancilla's step"):
            ModuleConfig(2, 16, coupling, prep)
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        ModuleConfig(2, 16, coupling, prep)
        assert len(orbit_tests) == 1

    def test_cache_is_bounded(self):
        assert module._orbit_verdict.cache_info().maxsize == 128


class TestCustomAncillaPrep:
    def test_orbit_basis_measurement_heralds_parity_directly(self):
        # Preparing |u_1> instead of |u_0> relabels outcomes: outcome m of a
        # custom ancilla finds it at Z_d^m|u_1> and heralds parity m.
        prep = fourier_ket(3, 1)
        config = ModuleConfig(3, 3, ancilla_prep=prep)
        records = run_module(plus_state(3), config)
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability == pytest.approx(1 / 4, abs=1e-12)
        assert by_parity[1].probability == pytest.approx(3 / 8, abs=1e-12)
        assert fidelity(by_parity[0].post_state, ghz(3)) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(by_parity[1].post_state, w(3)) == pytest.approx(1.0, abs=1e-12)
        # The config is its four fields, equal by value; it keeps no orbit.
        assert config == ModuleConfig(3, 3, ancilla_prep=prep)
        assert [f.name for f in fields(ModuleConfig)] == ["n", "d", "coupling", "ancilla_prep"]

    def test_non_orthonormal_orbit_rejected(self):
        # |0> is an eigenvector of the phase mark, so its orbit never spans.
        with pytest.raises(ValueError, match="orbit"):
            ModuleConfig(2, 2, ancilla_prep=basis_ket((2,), 0))

    def test_shift_custom_prep(self):
        # For the shift coupling the computational vector |1> has an
        # orthonormal orbit under X_d and shifts the outcome labels.
        config = ModuleConfig(2, 2, CouplingKind.SHIFT, ancilla_prep=basis_ket((2,), 1))
        records = run_module(plus_state(2), config)
        by_parity = {r.parity: r for r in records}
        assert by_parity[0].probability == pytest.approx(1.0, abs=1e-12)


class TestCouplingStructure:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20)
    def test_coupling_order_never_matters(self, seed):
        g = np.random.default_rng(seed)
        n, d = int(g.integers(2, 5)), int(g.integers(2, 5))
        coupling = CouplingKind.PHASE if g.integers(2) == 0 else CouplingKind.SHIFT
        state = Ket(random_ket_amps(g, 1 << n), (2,) * n, normalized=True)
        joint0 = tensor([state, default_ancilla(d, coupling)])
        forward = joint0
        for q in range(n):
            forward = couple_once(forward, q, coupling)
        backward = joint0
        for q in reversed(range(n)):
            backward = couple_once(backward, q, coupling)
        shuffled = joint0
        for q in g.permutation(n):
            shuffled = couple_once(shuffled, int(q), coupling)
        assert np.allclose(forward.amps, backward.amps, atol=1e-12)
        assert np.allclose(forward.amps, shuffled.amps, atol=1e-12)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20)
    def test_projector_form_equals_sequential_coupling(self, seed):
        g = np.random.default_rng(seed)
        n, d = int(g.integers(1, 5)), int(g.integers(2, 5))
        coupling = CouplingKind.PHASE if g.integers(2) == 0 else CouplingKind.SHIFT
        state = Ket(random_ket_amps(g, 1 << n), (2,) * n, normalized=True)
        joint = sequential_joint(state, coupling, default_ancilla(d, coupling))
        # sum_i P_i|state> x V^i|ancilla> with the Fourier-sum projectors.
        step = coupling_step(d, coupling).entries
        anc = default_ancilla(d, coupling).amps
        via_projectors = np.zeros_like(joint.amps)
        for ref in fourier_sum_projectors(n, d, coupling):
            via_projectors += np.kron(ref @ state.amps, anc)
            anc = step @ anc
        assert np.allclose(joint.amps, via_projectors, atol=1e-10)

    def test_qubit_ancilla_case_has_two_branch_form(self):
        # For d=2 the joint output is P_0|psi>|+> + P_1|psi>|->, so
        # projecting the ancilla onto (|0> +/- |1>)/sqrt(2) recovers the
        # parity projections of the register.
        state = random_register(11, 3)
        joint = sequential_joint(state, CouplingKind.PHASE, default_ancilla(2, CouplingKind.PHASE))
        pset = build_projectors(3, 2, CouplingKind.PHASE)
        mat = joint.amps.reshape(8, 2)
        for i, sign in enumerate([1.0, -1.0]):
            anc = np.array([1.0, sign]) / math.sqrt(2)
            branch = mat @ anc.conj()
            assert np.allclose(branch, pset.projectors[i].entries @ state.amps, atol=1e-12)


class TestWeightKernels:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_phase_kernel_is_the_textbook_complex_chain(self, n):
        # Entry (x, j) of the coupled state is kron(amps, prep)[x, j] times z_j, wt(x)
        # times over, each product rounded as Python's complex * rounds it (no fused
        # multiply-add); branch m is that matrix contracted with readout row m by @.
        # |+>^n with the default ancilla keeps those bits; any other case (a Dicke sum
        # and every other 1-qubit register included) takes the class mask, which must
        # keep the mask oracle's bits and the chain's values.
        g = np.random.default_rng(n)
        wts = hamming_weights(n)
        for kind, amps in phase_kernel_registers(g, n).items():
            for d in range(2, 8):
                clock = np.diag(pauli_z(d).entries)
                for prep in (None, orbit_ancilla(g, d, CouplingKind.PHASE)):
                    config = ModuleConfig(n, d, ancilla_prep=prep)
                    first, vecs, parities = phase_heralding(d, prep)
                    joint = np.kron(amps, first).reshape(1 << n, d)
                    chain = np.empty_like(joint)
                    for x, j in np.ndindex(joint.shape):
                        a, z = complex(joint[x, j]), complex(clock[j])
                        for _ in range(wts[x]):
                            a = a * z
                        chain[x, j] = a
                    chains = [chain @ v.conj() for v in vecs]
                    on_chain = prep is None and kind == "plus"
                    expect = chain_pairs(chains) if on_chain else mask_branches(amps, n, parities)
                    assert_phase_bits(kernel_posts(amps, config), expect, chains, (kind, d, prep is None), on_chain)

    @pytest.mark.parametrize("n", range(13, 17))
    def test_fused_phase_kernel_keeps_the_unfused_bits(self, n):
        # The chain on the n + 1 weights of |+>^n keeps the unfused chain's bits at every
        # size; every other case keeps the mask oracle's bits.
        g = np.random.default_rng(n)
        for kind, amps in phase_kernel_registers(g, n).items():
            for d in range(2, 8):
                for prep in (None, orbit_ancilla(g, d, CouplingKind.PHASE)):
                    config = ModuleConfig(n, d, ancilla_prep=prep)
                    first, vecs, parities = phase_heralding(d, prep)
                    chains = unfused_phase_branches(amps, n, first, vecs)
                    on_chain = prep is None and kind == "plus"
                    expect = chain_pairs(chains) if on_chain else mask_branches(amps, n, parities)
                    assert_phase_bits(kernel_posts(amps, config), expect, chains, (kind, d, prep is None), on_chain)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_the_heralding_table_is_the_parity_permutation(self, coupling):
        # T[m, w] = <r_m|V^w|prep> is 1 where w == parities[m] and 0 elsewhere, so every
        # branch is a class mask: to rounding for the default ancilla, and within the
        # orbit check's tolerance for a custom one, whose outcome m heralds parity m.
        g = np.random.default_rng(19)
        for d in range(2, 17):
            step = coupling_step(d, coupling)
            readout = np.eye(d) if coupling is CouplingKind.SHIFT else _fourier_readout(d)
            orbit = check_orbit(step, Ket(readout[0], (d,)), d).orbit
            permutation = np.equal.outer(default_parities(d, coupling), np.arange(d))
            assert np.abs(readout.conj() @ orbit.T - permutation).max() <= 1e-14, d
            orbit = check_orbit(step, orbit_ancilla(g, d, coupling), d).orbit
            assert np.abs(orbit.conj() @ orbit.T - np.eye(d)).max() <= ORBIT_ATOL, d

    def test_only_a_real_constant_register_runs_the_chain(self, monkeypatch):
        calls = []

        def counted(value, n, d):
            calls.append(n)
            return chain(value, n, d)

        chain = module._phase_representatives
        monkeypatch.setattr(module, "_phase_representatives", counted)
        g = np.random.default_rng(3)
        minus = Ket(-plus_state(5).amps, (2,) * 5, normalized=True)
        for state in (plus_state(4), minus):
            run_module(state, ModuleConfig(len(state.factor_dims), 3))
        assert calls == [4, 5]
        # A complex multiple of |+>^n, |+>^n with one imaginary part -0.0 or with one ulp
        # moved in its last block, W, a Dicke sum, a random register, a custom ancilla on
        # |+>^n and the shift coupling take the mask.
        signed_zero = plus_state(4).amps.copy()
        signed_zero[5] = complex(signed_zero[5].real, -0.0)
        custom = ModuleConfig(4, 3, ancilla_prep=orbit_ancilla(g, 3, CouplingKind.PHASE))
        for amps, config in (
            (1j**0.5 * plus_state(4).amps, ModuleConfig(4, 3)),
            (signed_zero, ModuleConfig(4, 3)),
            (near_miss(16), ModuleConfig(16, 3)),
            (w(5).amps, ModuleConfig(5, 3)),
            (random_dicke_sum(g, 5).amps, ModuleConfig(5, 3)),
            (random_register(4, 4).amps, ModuleConfig(4, 3)),
            (plus_state(4).amps, custom),
            (plus_state(4).amps, ModuleConfig(4, 3, CouplingKind.SHIFT)),
        ):
            run_module(Ket(amps, (2,) * config.n, normalized=True), config, classify_states=False)
        assert calls == [4, 5]

    def test_only_the_chain_builds_fourier_rows(self):
        # The mask route labels its outcomes without a readout: a default or custom phase run
        # off the chain (W and a Dicke sum included), and any shift run, builds no Fourier
        # readout.  The chain builds the d x d readout once per d.
        n, d = 4, 29
        g = np.random.default_rng(29)
        module._fourier_readout.cache_clear()
        for state, config in (
            (random_register(n, n), ModuleConfig(n, d)),
            (w(n), ModuleConfig(n, d)),
            (random_dicke_sum(g, n), ModuleConfig(n, d)),
            (plus_state(n), ModuleConfig(n, d, ancilla_prep=orbit_ancilla(g, d, CouplingKind.PHASE))),
            (plus_state(n), ModuleConfig(n, d, CouplingKind.SHIFT)),
            (random_dicke_sum(g, n), ModuleConfig(n, d, CouplingKind.SHIFT, ancilla_prep=orbit_ancilla(g, d, CouplingKind.SHIFT))),
        ):
            run_module(state, config)
        assert module._fourier_readout.cache_info().misses == 0
        for state in (plus_state(n), Ket(-plus_state(n).amps, (2,) * n, normalized=True)):
            run_module(state, ModuleConfig(n, d))
        info = module._fourier_readout.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_mask_route_runs_where_fourier_kets_fail_their_norm_check(self):
        # Some fourier_ket(140, m) misses its own norm check, and only the chain reads
        # Fourier rows, which it builds without that check: a random register runs at d = 140, and a custom phase
        # ancilla from the solver is admitted and runs, each with the histogram's probabilities.
        n, d = 3, 140
        g = np.random.default_rng(140)
        state = random_register(d, n)
        probs = outcome_distribution(state, n, d)
        prep = admissible_state(roots_of_unity_spec(d), list(2 * np.pi * g.random(d)))
        for config in (ModuleConfig(n, d), ModuleConfig(n, d, ancilla_prep=prep)):
            records = run_module(state, config, classify_states=False)
            assert [r.probability for r in records] == [probs[r.parity] for r in records]
            assert sorted(r.parity for r in records) == list(range(d))

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_mask_route_probabilities_are_the_distribution_bits(self, coupling):
        # Both routes read the probabilities off one class histogram, so they cannot disagree.
        g = np.random.default_rng(23)
        complex_plus = Ket(1j**0.5 * plus_state(6).amps, plus_state(6).factor_dims, normalized=True)
        for state in (random_register(7, 7), random_register(12, 12), complex_plus, random_dicke_sum(g, 9)):
            n = len(state.factor_dims)
            constant = _real_constant(state.amps) is not None
            for d in range(2, 8):
                probs = outcome_distribution(state, n, d, coupling)
                for prep in (None, orbit_ancilla(g, d, coupling)):
                    if coupling is CouplingKind.PHASE and prep is None and constant:
                        continue  # the chain route
                    records = run_module(state, ModuleConfig(n, d, coupling, ancilla_prep=prep), classify_states=False)
                    assert [r.probability for r in records] == [probs[r.parity] for r in records], (n, d)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("family", ["w", "dicke"])
    def test_18_qubit_w_and_dicke_registers_run_at_every_small_d(self, family, coupling):
        # Each branch is divided by the root of its class probability, within (n + 8) 2^-53
        # of the exact class sum.  Divided by a sequential np.bincount histogram's value,
        # 6 of these 20 runs left a shift post-state whose squared norm missed 1 by more
        # than NORMALIZED_ATOL.  Both couplings take the mask.
        n = 18
        state = w(n) if family == "w" else dicke(n, n // 2)
        for d in range(3, 8):
            records = run_module(state, ModuleConfig(n, d, coupling), classify_states=False)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
            probs = outcome_distribution(state, n, d, coupling)
            assert [r.probability for r in records] == [probs[r.parity] for r in records]
            for r in records:
                if r.post_state is not None:
                    assert abs(squared_norm(r.post_state.amps) - 1.0) <= 1e-14, (d, r.parity)

    def test_class_probabilities_are_the_exact_sums_at_20_qubits(self):
        # A class is summed pairwise within each weight and its weights by math.fsum, so the
        # rounding does not grow with 2^n; one sequential histogram missed here by 5.7e-13.
        n, d = 20, 3
        state = dicke(n, n // 2)
        classes = hamming_weights(n) % d
        squares = np.abs(state.amps) ** 2
        exact = [math.fsum(squares[classes == i]) for i in range(d)]
        assert outcome_distribution(state, n, d) == pytest.approx(exact, abs=1e-14)

    def test_phase_run_holds_branches_not_a_joint_matrix(self):
        # The phase path keeps d branch vectors and the post-states that replace them,
        # plus classification's working space; a (2^n, d) joint matrix would add d more.
        n, d = 16, 7
        state, config = plus_state(n), ModuleConfig(n, d)
        run_module(state, config)  # builds the cached weight tables outside the measurement
        tracemalloc.start()
        try:
            run_module(state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d + 3.5) * (16 << n)

    def test_chain_holds_one_branch_per_weight_whatever_d(self):
        # Only the n + 1 parities that are weights carry more than rounding: the chain holds
        # a branch for each of them and gathers every other branch in turn into one spare
        # array, so d = 1024 at n = 12 needs n + 2 vectors and its d small records and rows
        # (about 0.9 KB an outcome), not the 1024 vectors of one branch per outcome.
        n, d = 12, 1024
        state, config = plus_state(n), ModuleConfig(n, d)
        run_module(state, config, classify_states=False)  # builds the cached readout and weight tables
        tracemalloc.start()
        try:
            records = run_module(state, config, classify_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(r.parity for r in records if not r.zero_probability) == list(range(n + 1))
        assert peak < (n + 3) * (16 << n) + 1024 * d

    @pytest.mark.parametrize("d", [3, 7])
    @pytest.mark.parametrize(
        "register, coupling",
        [("plus", CouplingKind.PHASE), ("random", CouplingKind.PHASE), ("random", CouplingKind.SHIFT)],
        ids=["plus-phase", "random-phase", "random-shift"],
    )
    def test_classified_run_needs_under_1_3_vectors_beyond_its_branches(self, register, coupling, d):
        # The chain keeps its d post-states, and beyond them one phase-fixed copy of the
        # post-state being classified and one weight class of it at a time, the largest
        # C(16, 8) / 2^16 = 0.2 of a vector; it gathers each branch straight into its own
        # array.  The mask route holds no branch: beyond the shift coupling's one transform
        # it needs the class histogram's |b|^2 and then one masked branch for the product
        # test, whatever d is.
        n = 16
        state = plus_state(n) if register == "plus" else random_register(n, n)
        config = ModuleConfig(n, d, coupling)
        run_module(state, config)  # builds the cached weight tables outside the measurement
        tracemalloc.start()
        try:
            run_module(state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = d if register == "plus" else int(coupling is CouplingKind.SHIFT)
        assert peak < (held + 1.3) * (16 << n)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_classified_random_run_needs_the_same_space_at_every_d(self, coupling):
        # A mask-route run holds no branch vectors, so its peak does not grow with d.
        n = 16
        state = random_register(n, n)
        peaks = []
        for d in (3, 7):
            config = ModuleConfig(n, d, coupling)
            run_module(state, config)  # builds the cached weight tables outside the measurement
            tracemalloc.start()
            try:
                run_module(state, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.25 * (16 << n), [p / (16 << n) for p in peaks]

    @pytest.mark.parametrize("n, d", [(16, 3), (17, 7)])
    def test_phase_run_of_a_random_register_holds_only_its_branches(self, n, d):
        # An unclassified mask run forms no branch: it peaks at the class histogram of
        # |amps|^2, which holds |amps| and its square, half a vector each, at once.
        state, config = random_register(n, n), ModuleConfig(n, d)
        run_module(state, config, classify_states=False)  # builds the cached weight tables
        tracemalloc.start()
        try:
            run_module(state, config, classify_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (16 << n)

    @pytest.mark.parametrize("d", [3, 7])
    def test_shift_run_of_a_random_register_holds_only_its_branches(self, d):
        # The shift transform b is the one register-sized array an unclassified run keeps,
        # shared by every post-state until it is read; beyond it the run peaks at the class
        # histogram, as the phase run does.  Transforming each branch back during the run
        # peaked at 3.88 (d = 3) and 7.88 (d = 7) vectors.
        n = 16
        state, config = random_register(n, n), ModuleConfig(n, d, CouplingKind.SHIFT)
        run_module(state, config, classify_states=False)  # builds the cached weight tables
        tracemalloc.start()
        try:
            run_module(state, config, classify_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * (16 << n)

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_in_place_shift_kernel_keeps_the_copying_bits(self, n):
        # A post-state read from the mask of H^(x)n amps, transformed back in place, keeps
        # the bits of the mask transformed back by a copy, over the root of its probability.
        # From n = 2 a real constant register (|+>^n and -|+>^n) skips the butterfly: its
        # parity-0 post-state is the register itself, bit for bit, over the root of its
        # squared norm, within 1e-15 of the butterfly's values.  A complex multiple of
        # |+>^n, a Dicke sum, the near miss, the random register and every 1-qubit register
        # take the butterfly.
        g = np.random.default_rng(n)
        registers = phase_kernel_registers(g, n)
        registers["minus"] = -registers["plus"]
        registers["complex-plus"] = np.exp(2j * np.pi * g.random()) * registers["plus"]
        for kind, amps in registers.items():
            constant = n >= 2 and kind in ("plus", "minus")
            for d in range(2, 8):
                for prep in (None, orbit_ancilla(g, d, CouplingKind.SHIFT)):
                    config = ModuleConfig(n, d, CouplingKind.SHIFT, ancilla_prep=prep)
                    parities = tuple(range(d))  # the default and every custom shift ancilla
                    got = kernel_posts(amps, config)
                    for parity, ((prob, post), (p0, b0)) in enumerate(zip(got, copying_shift_branches(amps, n, parities), strict=True)):
                        where = (kind, d, prep is None, parity)
                        assert (post is None) == (b0 is None), where
                        if constant:
                            assert prob == pytest.approx(p0, abs=1e-15) and (prob == 0.0) == (parity != 0), where
                            if b0 is not None:
                                assert_post_bits(post, amps, prob, where)
                                assert np.abs(post * math.sqrt(prob) - b0).max() <= 1e-15, where
                            continue
                        assert_class_probability(prob, p0, n, where)
                        if b0 is not None:
                            assert_post_bits(post, b0, prob, where)

    def test_constant_shift_run_makes_no_hadamard_transform(self, monkeypatch):
        calls = []

        def counted(t, n):
            calls.append(n)
            return _hadamard_rows(t, n)

        monkeypatch.setattr("qparity.module._hadamard_rows", counted)
        g = np.random.default_rng(5)
        for n, d in [(2, 2), (5, 3), (10, 7)]:
            for prep in (None, orbit_ancilla(g, d, CouplingKind.SHIFT)):
                for sign in (1, -1):
                    state = Ket(sign * plus_state(n).amps, plus_state(n).factor_dims, normalized=True)
                    run_module(state, ModuleConfig(n, d, CouplingKind.SHIFT, ancilla_prep=prep))
        assert calls == []
        # The butterfly still serves every other register (a Dicke sum and a complex multiple
        # of |+>^n included), and every 1-qubit one.
        complex_plus = Ket(1j ** 0.5 * plus_state(3).amps, plus_state(3).factor_dims, normalized=True)
        for state in (random_register(5, 5), random_dicke_sum(g, 4), complex_plus, plus_state(1)):
            run_module(state, ModuleConfig(len(state.factor_dims), 3, CouplingKind.SHIFT))
        assert set(calls) == {1, 3, 4, 5}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_shift_run_of_plus_reports_exact_zero_branches(self, n):
        # |+>^n is the Hadamard-basis all-zero string: every outcome but 0 has no weight,
        # and the post-state of outcome 0 is |+>^n itself, bit for bit.
        for d in range(2, 8):
            records = run_module(plus_state(n), ModuleConfig(n, d, CouplingKind.SHIFT), classify_states=False)
            assert records[0].probability == pytest.approx(1.0, abs=1e-14)
            assert np.array_equal(records[0].post_state.amps.view(np.uint64), plus_state(n).amps.view(np.uint64))
            for r in records[1:]:
                assert r.probability == 0.0 and r.zero_probability, (d, r.outcome_label)

    def test_constant_shift_branch_is_classified_from_its_dicke_overlaps(self, monkeypatch):
        # The one nonzero branch of +-|+>^n under the shift coupling is the register itself,
        # so it is classified from its n + 1 Dicke overlaps: a Product whose residual is
        # exactly 0, with no pass over its 2^n amplitudes.  The chain still runs classify.
        decompose, classify = states.dicke_decompose, states.classify
        calls = {"decompose": 0, "classify": 0}

        def counted_decompose(state):
            calls["decompose"] += 1
            return decompose(state)

        def counted_classify(state):
            calls["classify"] += 1
            return classify(state)

        monkeypatch.setattr(states, "dicke_decompose", counted_decompose)
        monkeypatch.setattr(states, "classify", counted_classify)
        for n in (2, 9, 16):
            for sign in (1, -1):
                state = Ket(sign * plus_state(n).amps, plus_state(n).factor_dims, normalized=True)
                records = run_module(state, ModuleConfig(n, 3, CouplingKind.SHIFT))
                cls = records[0].classification
                assert (cls.family, cls.decomposition.residual) == (Family.PRODUCT, 0.0), (n, sign)
                assert cls.fidelity >= FIDELITY_THRESHOLD, (n, sign)
                assert calls == {"decompose": 0, "classify": 0}, (n, sign)
            chain = run_module(plus_state(n), ModuleConfig(n, 3))
            assert calls["classify"] == sum(not r.zero_probability for r in chain) > 0, n
            calls.update(decompose=0, classify=0)

    @pytest.mark.parametrize("coupling, working", [(CouplingKind.PHASE, 0.25), (CouplingKind.SHIFT, 2.25)], ids=["phase", "shift"])
    def test_branches_are_normalized_in_place(self, coupling, working):
        # A post-state read is formed as one masked array, transformed back (shift) and
        # divided by sqrt(p) in place, and then owned by its post-state: reading all d of
        # them holds d vectors, plus b and one butterfly scratch for the shift coupling.
        # One more copy at formation would add a vector to the last read.
        n, d = 16, 7
        state, config = random_register(n, n), ModuleConfig(n, d, coupling)
        run_module(state, config)  # builds the cached weight tables outside the measurement
        tracemalloc.start()
        try:
            records = run_module(state, config)
            posts = [r.post_state.amps for r in records if not r.zero_probability]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(posts) == d
        assert peak < (d + working) * (16 << n)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_every_post_state_is_its_branch_over_the_root_of_its_probability(self, monkeypatch, n):
        # The Born rule is the one normalization: on every route a post-state has the bits
        # of the route's branch, as float pairs, times 1 / math.sqrt of the probability its
        # record reports.  Every nonzero float keeps the bits of the complex division by that
        # root; a zero may differ only in its sign.  A nonzero branch is summed once, by the
        # post-state's normalization check: during the run on the chain and the constant
        # shift route, and when its amplitudes are first read on the mask route, which
        # sums nothing of register size during an unclassified run.  The chain also sums
        # each of its d branches once for its probability.
        g = np.random.default_rng(n)
        plus = plus_state(n)
        registers = {"plus": plus, "minus": Ket(-plus.amps, plus.factor_dims, normalized=True)}
        registers |= {"random": random_register(n, n), "dicke": random_dicke_sum(g, n)} | ({"w": w(n)} if n > 1 else {})
        calls = []

        def counted(a):
            calls.append(a.size)
            return squared_norm(a)

        for coupling in CouplingKind:
            shift = coupling is CouplingKind.SHIFT
            for d in range(2, 8):
                for prep in (None, orbit_ancilla(g, d, coupling)):
                    config = ModuleConfig(n, d, coupling, ancilla_prep=prep)
                    parities = default_parities(d, coupling) if prep is None else tuple(range(d))
                    for kind, state in registers.items():
                        value = _real_constant(state.amps)
                        on_chain = value is not None and not shift and prep is None
                        constant_shift = value is not None and shift and n >= 2
                        if on_chain:
                            rows = module._phase_representatives(value, n, d)
                            expect = [(squared_norm(b), b) for b in (np.take(row, hamming_weights(n)) for row in rows)]
                        elif constant_shift:
                            expect = [(None, state.amps) if parity == 0 else (0.0, None) for parity in parities]
                        elif shift:
                            expect = list(copying_shift_branches(state.amps, n, parities))
                        else:
                            expect = mask_branches(state.amps, n, parities)
                        with monkeypatch.context() as m:
                            m.setattr("qparity.module.squared_norm", counted)
                            m.setattr("qparity.linalg.squared_norm", counted)
                            calls.clear()
                            records = run_module(state, config, classify_states=False)
                            during = len(calls)
                            posts = [r.post_state.amps for r in records if not r.zero_probability]
                        where = (kind, coupling, d, prep is None)
                        nonzero = len(posts)
                        assert calls == [1 << n] * (nonzero + d * on_chain), where
                        assert during == (nonzero + d * on_chain if on_chain or constant_shift else 0), where
                        for r, (p0, branch) in zip(records, expect, strict=True):
                            assert r.parity == parities[r.outcome_label], where
                            assert r.zero_probability == (r.post_state is None) == (r.probability < ZERO_PROBABILITY_ATOL), where
                            if on_chain:
                                assert r.probability == p0, where
                            if r.zero_probability:
                                continue
                            got = r.post_state.amps.view(np.float64)
                            assert_post_bits(r.post_state.amps, branch, r.probability, where)
                            divided = (branch / math.sqrt(r.probability)).view(np.float64)
                            nonzero_parts = got != 0
                            assert np.array_equal(got[nonzero_parts].view(np.uint64), divided[nonzero_parts].view(np.uint64)), where
                            assert not divided[~nonzero_parts].any(), where

    @pytest.mark.parametrize("n", [*range(1, 15), 16])
    def test_row_hadamard_kernel_keeps_the_stacked_butterfly_bits(self, n):
        # Every row keeps the bits of the stacked butterfly run on that row alone, whether
        # its group holds all r rows (n <= 12), several groups split them, the last one
        # partial (n = 13, 14), or each row is a group of its own (n = 16).
        g = np.random.default_rng(n)
        for r in (1, 2, 3, 7):
            a = g.normal(size=(r, 1 << n)) + 1j * g.normal(size=(r, 1 << n))
            expect = np.array([stacked_butterfly(row, n) for row in a])
            t = a.copy()
            assert _hadamard_rows(t, n) is t
            assert np.array_equal(t.view(np.uint64), expect.view(np.uint64)), r

    def test_shift_run_makes_one_transform_and_one_per_post_state_read(self, monkeypatch):
        # A shift run, classified or not, makes one call, the forward transform, whatever d
        # is; a post-state is transformed back by one more one-row call when its amplitudes
        # are first read, and never again.
        calls = []

        def counted(t, n):
            calls.append(t.shape[0])
            return _hadamard_rows(t, n)

        monkeypatch.setattr("qparity.module._hadamard_rows", counted)
        for n in [*range(1, 13), 16]:
            state = random_register(n, n)
            for d in range(2, 9):
                for classify in (False, True):
                    calls.clear()
                    records = run_module(state, ModuleConfig(n, d, CouplingKind.SHIFT), classify_states=classify)
                    assert calls == [1], (n, d, classify)
                    posts = [r.post_state for r in records if not r.zero_probability]
                    for post in posts + posts:
                        assert post.amps.size == 1 << n
                    assert calls == [1] * (1 + len(posts)), (n, d, classify)

    @pytest.mark.parametrize("n", [5, 13])
    def test_post_states_are_separate_read_only_arrays(self, n):
        # Each post-state's amplitudes are a C-contiguous, read-only array of their own, which
        # shares no memory with another post-state or the register, and forming one leaves
        # every other branch's bits alone: read in either order, the post-states of d = 7
        # (six nonzero at n = 5, seven at n = 13) have the same bits.
        state = random_register(n, n)
        for coupling in CouplingKind:
            config = ModuleConfig(n, 7, coupling)
            forward, backward = (
                [r.post_state for r in run_module(state, config, classify_states=False) if not r.zero_probability] for _ in range(2)
            )
            posts = [post.amps for post in forward]
            reversed_posts = [post.amps for post in reversed(backward)][::-1]
            assert len(posts) == min(n + 1, 7), coupling
            assert all(p.flags.c_contiguous and not p.flags.writeable for p in posts), coupling
            for i, (p, q) in enumerate(zip(posts, reversed_posts, strict=True)):
                assert np.array_equal(p.view(np.uint64), q.view(np.uint64)), (coupling, i)
                assert not np.shares_memory(p, state.amps), (coupling, i)
                assert not any(np.shares_memory(p, other) for other in posts[i + 1 :]), (coupling, i)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=7),
        st.sampled_from(list(CouplingKind)),
        st.sampled_from(["default", "custom"]),
        st.sampled_from(["plus", "minus", "random", "w", "dicke", "dicke-sum"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150)
    def test_run_module_matches_sequential_oracle(self, n, d, coupling, ancilla, register, seed):
        # Every route against the sequential-gate oracle: |+>^n up to sign takes the chain
        # (default phase ancilla) or the constant shift route, and every other register the
        # mask.  Each post-state is read and held to the oracle's branch, and each
        # classification to ``full_vector_classify`` of that post-state.
        g = np.random.default_rng(seed)
        if register in ("plus", "minus"):
            state = Ket((1 if register == "plus" else -1) * plus_state(n).amps, (2,) * n, normalized=True)
        elif register == "random":
            state = random_register(seed, n)
        elif register == "w":
            state = dicke(n, 1)  # W_n, and |1> at n = 1
        elif register == "dicke":
            state = dicke(n, int(g.integers(n + 1)))
        else:
            state = random_dicke_sum(g, n)
        if ancilla == "default":
            config = ModuleConfig(n, d, coupling)
            prep = default_ancilla(d, coupling)
            readout = [default_ancilla(d, coupling, m).amps for m in range(d)]
        else:
            prep = orbit_ancilla(g, d, coupling)
            config = ModuleConfig(n, d, coupling, ancilla_prep=prep)
            step = coupling_step(d, coupling).entries
            readout = [np.linalg.matrix_power(step, m) @ prep.amps for m in range(d)]
        mat = sequential_joint(state, coupling, prep).amps.reshape(1 << n, d)
        records = run_module(state, config)
        assert [r.outcome_label for r in records] == list(range(d))
        for r, ket in zip(records, readout, strict=True):
            branch = mat @ ket.conj()
            prob = float(np.vdot(branch, branch).real)
            assert r.probability == pytest.approx(prob, abs=1e-12)
            assert r.zero_probability == (prob < ZERO_PROBABILITY_ATOL)
            if r.zero_probability:
                assert r.post_state is None and r.classification is None
                continue
            assert np.abs(r.post_state.amps * math.sqrt(r.probability) - branch).max() <= 1e-12
            assert_classified_as_full_vector(r.classification, r.post_state)


class TestSliceClassification:
    @pytest.mark.parametrize("coupling", list(CouplingKind))
    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
    def test_near_product_branch_gets_the_full_vector_verdict(self, coupling, factor):
        # y = sqrt(1 - e^2)|x> + e|x'> with x = 000111 and x' = 111000 in one class: the first
        # split's second singular value is e, so y is a Product exactly when e is within
        # _PRODUCT_SPLIT_ATOL.  The shift register is H^(x)n y, whose branch is tested in the
        # Hadamard frame; the verdict must match the split of the formed post-state.
        n, d = 6, 3
        eps = factor * states._PRODUCT_SPLIT_ATOL
        g = np.random.default_rng(int(factor * 100))
        y = np.zeros(1 << n, dtype=complex)
        y[0b000111], y[0b111000] = np.exp(2j * np.pi * g.random(2)) * [math.sqrt(1 - eps**2), eps]
        amps = stacked_butterfly(y, n) if coupling is CouplingKind.SHIFT else y
        records = run_module(Ket(amps, (2,) * n, normalized=True), ModuleConfig(n, d, coupling))
        (branch,) = [r for r in records if not r.zero_probability]
        assert (branch.classification.family is Family.PRODUCT) == (factor < 1), factor
        assert_classified_as_full_vector(branch.classification, branch.post_state)

    @pytest.mark.parametrize("register", ["w", "dicke"])
    def test_shift_branch_with_no_first_amplitude_takes_its_lead_from_the_formed_post_state(self, monkeypatch, register):
        # A shift post-state's first amplitude is its D(n, 0) overlap.  Where that is 0, as
        # for W_4 and D(4, 2) at d = 2 in class 0, the lead is read from a post-state formed
        # for the purpose, one more butterfly call, and dropped: its amplitudes are formed
        # again when they are read.
        calls = []

        def counted(t, n):
            calls.append(n)
            return _hadamard_rows(t, n)

        monkeypatch.setattr("qparity.module._hadamard_rows", counted)
        cases = 0
        for n in range(2, 9):
            state = w(n) if register == "w" else dicke(n, n // 2)
            for d in range(2, 8):
                calls.clear()
                records = run_module(state, ModuleConfig(n, d, CouplingKind.SHIFT))
                during = len(calls)
                posts = [r for r in records if not r.zero_probability]
                leadless = sum(abs(r.post_state.amps[0]) <= states._PHASE_LEAD_FLOOR for r in posts)
                assert during == 1 + leadless, (n, d)
                assert len(calls) == during + len(posts), (n, d)
                for r in posts:
                    assert_classified_as_full_vector(r.classification, r.post_state)
                cases += leadless
        assert cases > 0

    @pytest.mark.parametrize("register", ["w", "dicke"])
    def test_shift_weight_ratios_are_the_full_vector_ratios(self, register):
        # A shift branch's small Dicke coefficients carry the integer ratios the report
        # prints, which need ~1e-14 of their relative bits: class 0 of W_16 at d = 3 has
        # c_1^2 / c_0^2 = 5465^2.  Mapping the slice's overlaps by a rounded matrix lost
        # them there; summing its exact totals first and scaling last keeps them.
        found = 0
        for n in range(2, 17):
            state = w(n) if register == "w" else dicke(n, n // 2)
            for d in range(2, 8):
                for r in run_module(state, ModuleConfig(n, d, CouplingKind.SHIFT)):
                    if r.zero_probability:
                        continue
                    want = states.squared_weight_ratios(full_vector_classify(r.post_state).decomposition)
                    assert states.squared_weight_ratios(r.classification.decomposition) == want, (n, d, r.parity)
                    found += want is not None
        assert found > 0

    @pytest.mark.parametrize("ancilla", ["default", "custom"])
    def test_phase_lead_is_the_first_index_not_the_first_weight(self, ancilla):
        # Class 1 of n = 5, d = 3 holds weights 1 and 4.  Its first amplitude above the floor
        # in index order is 01111 (weight 4), ahead of 10000 (weight 1), the first in weight
        # order.  Rotated by the first in index order, 0.6i, the weight-1 overlap is
        # imaginary and only weight 4 keeps a coefficient; the first in weight order would
        # keep weight 1 instead.
        n, d = 5, 3
        amps = np.zeros(1 << n, dtype=complex)
        amps[0b01111], amps[0b10000], amps[0b00111] = 0.6j, 0.6, 0.8
        amps /= np.linalg.norm(amps)
        prep = None if ancilla == "default" else orbit_ancilla(np.random.default_rng(5), d, CouplingKind.PHASE)
        records = run_module(Ket(amps, (2,) * n, normalized=True), ModuleConfig(n, d, ancilla_prep=prep))
        (branch,) = [r for r in records if r.parity == 1]
        assert branch.probability == pytest.approx(0.72 / 1.36, abs=1e-15)
        assert set(branch.classification.decomposition.coeffs) == {4}
        assert_classified_as_full_vector(branch.classification, branch.post_state)


class TestDistributionAgreement:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=25)
    def test_sequential_and_projector_probabilities_agree(self, seed):
        g = np.random.default_rng(seed)
        n, d = int(g.integers(1, 6)), int(g.integers(2, 6))
        coupling = CouplingKind.PHASE if g.integers(2) == 0 else CouplingKind.SHIFT
        state = Ket(random_ket_amps(g, 1 << n), (2,) * n, normalized=True)
        records = run_module(state, ModuleConfig(n, d, coupling), classify_states=False)
        probs = outcome_distribution(state, n, d, coupling)
        for r in records:
            assert r.probability == pytest.approx(probs[r.parity], abs=1e-10)

    def test_nan_input_rejected(self):
        # NaN compares False against every tolerance, so each norm check must fail closed.
        state = Ket(np.array([np.nan, 1.0, 0.0, 0.0]), (2, 2))
        with pytest.raises(ValueError, match="normalized"):
            run_module(state, ModuleConfig(2, 2), classify_states=False)
        with pytest.raises(ValueError, match="normalized"):
            outcome_distribution(state, 2, 2)
        with pytest.raises(ValueError, match="normalized"):
            ModuleConfig(2, 2, ancilla_prep=Ket(np.array([np.nan, 1.0]), (2,)))

    def test_ancilla_wider_than_a_uint8_weight(self):
        # The weights are uint8, and a class mod d > 255 must not overflow the operand.
        d = 300
        assert build_projectors(3, d).dims == (1, 3, 3, 1) + (0,) * (d - 4)
        assert outcome_distribution(plus_state(3), 3, d)[:5] == pytest.approx([1 / 8, 3 / 8, 3 / 8, 1 / 8, 0.0], abs=1e-15)
        state = random_register(3, 3)
        records = run_module(state, ModuleConfig(3, d, CouplingKind.SHIFT), classify_states=False)
        probs = outcome_distribution(state, 3, d, CouplingKind.SHIFT)
        assert [r.probability for r in records] == pytest.approx(probs, abs=1e-12)
        assert all(r.zero_probability for r in records[4:])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_module(plus_state(3), ModuleConfig(2, 2))
        with pytest.raises(ValueError):
            run_module(Ket(np.array([1.0, 1.0, 0, 0]), (2, 2)), ModuleConfig(2, 2))
        with pytest.raises(ValueError):
            outcome_distribution(plus_state(3), 2, 2)
        with pytest.raises(ValueError, match="coupling"):
            outcome_distribution(plus_state(2), 2, 2, "shift")
        for d in (1, 0, -2):
            with pytest.raises(ValueError, match="carries no parity"):
                outcome_distribution(plus_state(3), 3, d)


# Every ResourceLimitError states the bytes it asked for and the limit.
FIVE_OVER_FOUR = r"limited to 256 bytes \(4 qubits\); 5 qubits need 512 bytes"


class TestResourceEnvelope:
    def test_default_limits(self, monkeypatch):
        # A 2^n x 2^n matrix holds as many amplitudes as a 2n-qubit statevector.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        assert statevector_qubit_limit() == 20
        assert build_projectors(10, 2).projectors[1].dim == 1 << 10
        with pytest.raises(ResourceLimitError):
            build_projectors(11, 2).projectors

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "12")
        assert statevector_qubit_limit() == 12
        for coupling in CouplingKind:
            assert len(build_projectors(6, 3, coupling).projectors) == 3
            with pytest.raises(ResourceLimitError):
                build_projectors(7, 3, coupling).projectors
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "30")
        assert statevector_qubit_limit() == 30
        with pytest.raises(ResourceLimitError):
            build_projectors(16, 2).projectors

    def test_invalid_env_values(self, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "abc")
        with pytest.raises(ValueError):
            statevector_qubit_limit()
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "0")
        with pytest.raises(ValueError):
            statevector_qubit_limit()

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_each_config_reads_the_cap_once(self, monkeypatch, coupling):
        # The register, the ancilla and a custom ancilla's step are all checked against one reading.
        reads = []
        read = module.statevector_qubit_limit
        monkeypatch.setattr(module, "statevector_qubit_limit", lambda: reads.append(1) or read())
        prep = fourier_ket(4, 0) if coupling is CouplingKind.PHASE else basis_ket((4,), 0)
        ModuleConfig(3, 4, coupling)
        assert len(reads) == 1
        ModuleConfig(3, 4, coupling, prep)
        assert len(reads) == 2

    def test_run_module_respects_cap(self, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "4")
        with pytest.raises(ResourceLimitError, match=FIVE_OVER_FOUR):
            run_module(plus_state(5), ModuleConfig(5, 2), classify_states=False)

    def test_huge_register_is_refused_without_building_its_byte_count(self, monkeypatch):
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        for n in (60, 20000, 10**20):
            with pytest.raises(ResourceLimitError, match=rf"\(20 qubits\); {n} qubits need 2\^{n + 4} bytes$"):
                ModuleConfig(n, 3)
        with pytest.raises(ResourceLimitError, match=r"; 59 qubits need 9223372036854775808 bytes$"):
            ModuleConfig(59, 3)

    def test_ancilla_longer_than_the_cap_is_refused_by_its_bytes(self, monkeypatch):
        # d > 2^cap is refused at construction, before any list of d outcomes exists;
        # only the constructor runs here.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        ModuleConfig(3, 1 << 20)
        for d in (2**20 + 1, 10**20):
            with pytest.raises(ResourceLimitError, match=rf"limited to 16777216 bytes \(20 qubits\); a {d}-level ancilla needs {16 * d} bytes$"):
                ModuleConfig(3, d)
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "2")
        ModuleConfig(2, 4, CouplingKind.SHIFT)
        with pytest.raises(ResourceLimitError, match=r"limited to 64 bytes \(2 qubits\); a 5-level ancilla needs 80 bytes$"):
            ModuleConfig(2, 5, CouplingKind.SHIFT)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_custom_ancilla_whose_step_exceeds_the_cap_is_refused(self, monkeypatch, coupling):
        # orbit_deviation forms the d * d products of a custom ancilla's Gram row, which the cap
        # counts as a d x d matrix of 16 d^2 bytes; under an 8-qubit cap d = 16 is admitted
        # and d = 17 refused before any product is formed.
        def prep(d):  # |u_0> under Z_d, |0> under X_d
            return fourier_ket(d, 0) if coupling is CouplingKind.PHASE else Ket(np.eye(d)[0], (d,), normalized=True)

        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        ModuleConfig(2, 16, coupling, prep(16))
        monkeypatch.setattr(module, "orbit_deviation", lambda *args: pytest.fail("formed the orbit"))
        step = r"a custom 17-level ancilla's step needs 4624 bytes as a 17 x 17 complex matrix$"
        with pytest.raises(ResourceLimitError, match=rf"limited to 4096 bytes \(8 qubits\); {step}"):
            ModuleConfig(2, 17, coupling, prep(17))

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_largest_custom_ancilla_is_admitted_in_small_space(self, monkeypatch, coupling):
        # The default cap admits a 1024-level custom ancilla.  Its orbit is read off the step's
        # eigenvalues in O(d) memory, 16 KiB per vector; a dense step, orbit and Gram matrix
        # would be 16 MiB each.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        d = 1024
        # Equal weight on every |k> (phase) or on every |u_k> (shift), here sum_k p_k |u_k> by an FFT.
        p = np.exp(2j * np.pi * np.random.default_rng(d).random(d)) / math.sqrt(d)
        admitted = Ket(p if coupling is CouplingKind.PHASE else np.fft.fft(p, norm="ortho"), (d,))
        # An eigenvector of the step: its orbit repeats one vector.
        refused = basis_ket((d,), 0) if coupling is CouplingKind.PHASE else fourier_ket(d, 0)
        # Measure the orbit tests themselves, not verdicts an earlier test left in the cache.
        module._orbit_verdict.cache_clear()
        tracemalloc.start()
        try:
            ModuleConfig(2, d, coupling, admitted)
            with pytest.raises(ValueError, match="does not generate an orthonormal orbit"):
                ModuleConfig(2, d, coupling, refused)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_build_projectors_respects_cap(self, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "3")
        with pytest.raises(ResourceLimitError, match=r"limited to 128 bytes \(3 qubits\); 4 qubits need 256 bytes"):
            build_projectors(4, 2)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_mask_route_respects_statevector_cap(self, monkeypatch, coupling):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "4")
        with pytest.raises(ResourceLimitError, match=FIVE_OVER_FOUR):
            outcome_distribution(plus_state(5), 5, 3, coupling)

    def test_mask_route_runs_above_projector_cap(self, monkeypatch):
        # n = 16 is beyond the dense view's cap but no 2^n x 2^n matrix is built.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        n, d = 16, 3
        for coupling in CouplingKind:
            pset = build_projectors(n, d, coupling)
            assert pset.dims == tuple(projector_dim(i, n, d) for i in range(d))
            with pytest.raises(ResourceLimitError):
                pset.projectors
        state = plus_state(n)
        phase = outcome_distribution(state, n, d, CouplingKind.PHASE)
        assert phase == pytest.approx([projector_dim(i, n, d) / 2**n for i in range(d)], abs=1e-12)
        assert outcome_distribution(state, n, d, CouplingKind.SHIFT) == pytest.approx([1, 0, 0], abs=1e-12)

    def test_dense_view_limit_states_bytes(self, monkeypatch):
        # Three float64 2^4 x 2^4 matrices need 3 * 8 * 4^4 bytes; the limit is one 7-qubit statevector.
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "7")
        pset = build_projectors(4, 3)
        with pytest.raises(ResourceLimitError, match=r"limited to 2048 bytes \(7 qubits\); .* need 6144 bytes, 2048 each"):
            pset.projectors
        # At d = 30 the view would build the 5 nonempty classes and one zero for the other 25.
        shared = r"; 5 dense 16 x 16 projectors and one zero shared by 25 empty classes need 12288 bytes, 2048 each$"
        with pytest.raises(ResourceLimitError, match=shared):
            build_projectors(4, 30).projectors


class TestHalfFilledBranch:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_half_filled_probability(self, k):
        # For n = 2k and d = n the half-weight branch keeps C(2k, k)/4^k.
        n = 2 * k
        records = run_module(plus_state(n), ModuleConfig(n, n), classify_states=False)
        branch = next(r for r in records if r.parity == k)
        assert branch.probability_exact == Fraction(math.comb(n, k), 1 << n)
        post = branch.post_state
        assert fidelity(post, dicke(n, k)) == pytest.approx(1.0, abs=1e-12)
