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
    basis_ket,
    fidelity,
    fourier_ket,
    hadamard,
    hamming_weights,
    omega,
    pauli_x,
    pauli_z,
    plus_state,
    tensor,
    weight_order,
)
from qparity.module import (
    ZERO_PROBABILITY_ATOL,
    CouplingKind,
    ModuleConfig,
    ResourceLimitError,
    _branches,
    _fourier_readout,
    _hadamard_in_place,
    _hadamard_transform,
    _step,
    _weight_representatives,
    build_projectors,
    outcome_distribution,
    projector_dim,
    run_module,
    statevector_qubit_limit,
)
from qparity import module
from qparity.linalg import NORM_ATOL
from qparity.solver import ORBIT_ATOL, admissible_state, check_orbit, roots_of_unity_spec
from qparity.states import dicke, dicke_sum, ghz, w

from conftest import random_ket_amps


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


def coupling_gate(d, coupling):
    """|0><0| x I + |1><1| x V with V = Z_d (phase), or its Hadamard conjugate on the qubit with V = X_d (shift)."""
    h = hadamard().entries if coupling is CouplingKind.SHIFT else np.eye(2)
    step = (pauli_x(d) if coupling is CouplingKind.SHIFT else pauli_z(d)).entries
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
    (mod d) and 0 elsewhere; its probability is that class's sum of |amps|^2 by np.bincount."""
    d = len(parities)
    classes = hamming_weights(n).astype(int) % d
    probs = np.bincount(classes, np.abs(amps) ** 2, minlength=d)
    pairs = []
    for parity in parities:
        branch = np.zeros(amps.shape, dtype=complex)
        branch[classes == parity] = amps[classes == parity]
        pairs.append((float(probs[parity]), branch))
    return pairs


def copying_shift_branches(amps, n, parities):
    """Test-only oracle: the shift kernel as the mask of H^(x)n amps, each nonzero branch
    then transformed back by a copying transform."""
    for prob, branch in mask_branches(_hadamard_transform(amps, n), n, parities):
        yield prob, (_hadamard_transform(branch, n) if prob >= ZERO_PROBABILITY_ATOL else None)


def chain_pairs(chains):
    """The (probability, branch) pairs of the per-excitation chain's branches."""
    return [(float(np.sum(np.abs(chain) ** 2)), chain) for chain in chains]


def phase_branches(amps, config):
    """The phase kernel's (probability, branch) pairs for ``config``'s ancilla."""
    reps = _weight_representatives(amps, config.n)
    return [(prob, branch) for _, prob, branch in _branches(amps, reps, config)]


def assert_phase_bits(got, expect, chains, where):
    """The phase kernel's pairs keep the expected oracle's bits, within 1e-14 of the chain's values."""
    for (prob, branch), (p0, b0), chain in zip(got, expect, chains, strict=True):
        assert prob == p0, where
        if prob < ZERO_PROBABILITY_ATOL:  # weight classes above n are empty
            assert branch is None, where
            continue
        assert np.array_equal(branch.view(np.uint64), b0.view(np.uint64)), where
        assert np.abs(branch - chain).max() <= 1e-14, where


def random_dicke_sum(g, n):
    """sum_k c_k D(n, k) with seeded random complex c_k: a weight-symmetric register."""
    return dicke_sum(n, {k: complex(*g.normal(size=2)) for k in range(n + 1)})


# The kinds of ``phase_kernel_registers`` that are weight-symmetric at every n.
SYMMETRIC = ("plus", "dicke")


def phase_kernel_registers(g, n):
    """Amplitudes for the phase-kernel bit tests, keyed by kind, random first.

    |+>^n and a Dicke sum are weight-symmetric, so the kernel runs on their n + 1
    weight representatives.  From n = 3 the near miss is that Dicke sum with
    amps[2^n - 2], the last string of weight n - 1, moved by one ulp and
    amps[1] == amps[2] kept, so only the last comparison of the symmetry check
    sends it down the general route.  (Weight n has one string, which is its
    own representative.)
    """
    amps = {"random": random_ket_amps(g, 1 << n), "plus": plus_state(n).amps, "dicke": random_dicke_sum(g, n).amps}
    if n >= 3:
        near = amps["dicke"].copy()
        near[-2] = complex(np.nextafter(near[-2].real, np.inf), near[-2].imag)
        amps["near-miss"] = near
    for kind, a in amps.items():  # every 1-qubit register is weight-symmetric
        assert (_weight_representatives(a, n) is None) == (n > 1 and kind not in SYMMETRIC), kind
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
            step = (pauli_x(d) if coupling is CouplingKind.SHIFT else pauli_z(d)).entries
            for index in range(d):
                anc = default_ancilla(d, coupling, index).amps
                joint = np.zeros((1 << n) * d, dtype=complex)
                for b in branches:
                    joint += np.kron(b, anc)
                    anc = step @ anc
                got = sequential_joint(state, coupling, default_ancilla(d, coupling, index)).amps
                assert np.abs(got - joint).max() <= 1e-12

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
            assert check_orbit(_step(d, coupling), prep, d).orthonormal
            state = random_register(d, 3)
            default = run_module(state, ModuleConfig(3, d, coupling), classify_states=False)
            custom = run_module(state, ModuleConfig(3, d, coupling, ancilla_prep=prep), classify_states=False)
            by_parity = {r.parity: r for r in custom}
            for r in default:
                assert r.probability == pytest.approx(by_parity[r.parity].probability, abs=1e-12)
                if not r.zero_probability:
                    assert fidelity(r.post_state, by_parity[r.parity].post_state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_cached_set_up_is_read_only(self, coupling):
        # run_module shares one step per (d, coupling) and one Fourier readout per d, equal
        # by value to what they are built from; the default ancilla (readout row 0, or |0>)
        # is admitted, and the default outcomes carry the default parities on both routes.
        shift = coupling is CouplingKind.SHIFT
        g = np.random.default_rng(29)
        for d in range(2, 8):
            step = _step(d, coupling)
            assert step is _step(d, coupling) and not step.entries.flags.writeable
            assert step.unitary and np.array_equal(step.entries, (pauli_x(d) if shift else pauli_z(d)).entries)
            readout = _fourier_readout(d)
            assert readout is _fourier_readout(d) and not readout.flags.writeable
            assert np.array_equal(readout, [fourier_ket(d, m).amps for m in range(d)])
            default = basis_ket((d,), 0) if shift else Ket(readout[0], (d,))
            assert check_orbit(step, default, d).orthonormal
            for amps in (plus_state(3).amps, random_ket_amps(g, 8)):
                got = _branches(amps, _weight_representatives(amps, 3), ModuleConfig(3, d, coupling))
                assert tuple(parity for parity, _, _ in got) == default_parities(d, coupling)
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
        step = (pauli_x(d) if coupling is CouplingKind.SHIFT else pauli_z(d)).entries
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
        # A weight-symmetric register with the default ancilla keeps those bits; any
        # other case takes the class mask, which must keep the mask oracle's bits and
        # the chain's values.
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
                    on_chain = prep is None and (n == 1 or kind in SYMMETRIC)
                    expect = chain_pairs(chains) if on_chain else mask_branches(amps, n, parities)
                    assert_phase_bits(phase_branches(amps, config), expect, chains, (kind, d, prep is None))

    @pytest.mark.parametrize("n", range(13, 17))
    def test_fused_phase_kernel_keeps_the_unfused_bits(self, n):
        # The chain on the n + 1 representatives keeps the unfused chain's bits at every
        # size; every other case keeps the mask oracle's bits.
        g = np.random.default_rng(n)
        for kind, amps in phase_kernel_registers(g, n).items():
            for d in range(2, 8):
                for prep in (None, orbit_ancilla(g, d, CouplingKind.PHASE)):
                    config = ModuleConfig(n, d, ancilla_prep=prep)
                    first, vecs, parities = phase_heralding(d, prep)
                    chains = unfused_phase_branches(amps, n, first, vecs)
                    on_chain = prep is None and kind in SYMMETRIC
                    expect = chain_pairs(chains) if on_chain else mask_branches(amps, n, parities)
                    assert_phase_bits(phase_branches(amps, config), expect, chains, (kind, d, prep is None))

    @pytest.mark.parametrize("coupling", list(CouplingKind))
    def test_the_heralding_table_is_the_parity_permutation(self, coupling):
        # T[m, w] = <r_m|V^w|prep> is 1 where w == parities[m] and 0 elsewhere, so every
        # branch is a class mask: to rounding for the default ancilla, and within the
        # orbit check's tolerance for a custom one, whose outcome m heralds parity m.
        g = np.random.default_rng(19)
        for d in range(2, 17):
            step = _step(d, coupling)
            readout = np.eye(d) if coupling is CouplingKind.SHIFT else _fourier_readout(d)
            orbit = check_orbit(step, Ket(readout[0], (d,)), d).orbit
            permutation = np.equal.outer(default_parities(d, coupling), np.arange(d))
            assert np.abs(readout.conj() @ orbit.T - permutation).max() <= 1e-14, d
            orbit = check_orbit(step, orbit_ancilla(g, d, coupling), d).orbit
            assert np.abs(orbit.conj() @ orbit.T - np.eye(d)).max() <= ORBIT_ATOL, d

    def test_only_the_default_phase_ancilla_on_a_symmetric_register_runs_the_chain(self, monkeypatch):
        calls = []

        def counted(reps, *args):
            calls.append(reps.size - 1)
            return chain(reps, *args)

        chain = module._phase_representatives
        monkeypatch.setattr(module, "_phase_representatives", counted)
        g = np.random.default_rng(3)
        for state in (plus_state(4), random_dicke_sum(g, 5)):
            run_module(state, ModuleConfig(len(state.factor_dims), 3))
        assert calls == [4, 5]
        # A custom ancilla on |+>^n, the shift coupling and a random register take the mask.
        custom = ModuleConfig(4, 3, ancilla_prep=orbit_ancilla(g, 3, CouplingKind.PHASE))
        for state, config in (
            (plus_state(4), custom),
            (random_dicke_sum(g, 4), ModuleConfig(4, 3, CouplingKind.SHIFT)),
            (random_register(4, 4), ModuleConfig(4, 3)),
        ):
            run_module(state, config)
        assert calls == [4, 5]

    def test_only_the_chain_builds_fourier_rows(self, monkeypatch):
        # The mask route labels its outcomes without a readout: at a d no run has used yet,
        # a default or custom phase run off the chain, and any shift run, builds no Fourier
        # ket.  The chain builds the d rows once per d.
        n, d = 4, 29
        g = np.random.default_rng(29)
        built = []

        def counted(dim, k):
            built.append(k)
            return fourier_ket(dim, k)

        monkeypatch.setattr(module, "fourier_ket", counted)
        for state, config in (
            (random_register(n, n), ModuleConfig(n, d)),
            (plus_state(n), ModuleConfig(n, d, ancilla_prep=orbit_ancilla(g, d, CouplingKind.PHASE))),
            (plus_state(n), ModuleConfig(n, d, CouplingKind.SHIFT)),
            (random_dicke_sum(g, n), ModuleConfig(n, d, CouplingKind.SHIFT, ancilla_prep=orbit_ancilla(g, d, CouplingKind.SHIFT))),
        ):
            run_module(state, config)
        assert built == []
        module._fourier_readout.cache_clear()
        for state in (plus_state(n), random_dicke_sum(g, n)):
            run_module(state, ModuleConfig(n, d))
        assert built == list(range(d))

    def test_mask_route_runs_where_fourier_kets_fail_their_norm_check(self):
        # Some fourier_ket(140, m) misses its own norm check (ROADMAP item 1), and only the
        # chain reads Fourier rows: a random register runs at d = 140, and a custom phase
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
            symmetric = _weight_representatives(state.amps, n) is not None
            for d in range(2, 8):
                probs = outcome_distribution(state, n, d, coupling)
                for prep in (None, orbit_ancilla(g, d, coupling)):
                    if coupling is CouplingKind.PHASE and prep is None and symmetric:
                        continue  # the chain route
                    records = run_module(state, ModuleConfig(n, d, coupling, ancilla_prep=prep), classify_states=False)
                    assert [r.probability for r in records] == [probs[r.parity] for r in records], (n, d)

    def test_phase_run_holds_branches_not_a_joint_matrix(self):
        # The phase path keeps d branch vectors and the post-states that replace them,
        # plus about 3 vectors of working space; a (2^n, d) joint matrix would add d more.
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

    @pytest.mark.parametrize("n, d", [(16, 3), (17, 7)])
    def test_phase_run_of_a_random_register_holds_only_its_branches(self, n, d):
        # The mask kernel forms one branch at a time, after the class histogram of
        # |amps|^2, so an unclassified run peaks at its d branches plus the weight classes.
        state, config = random_register(n, n), ModuleConfig(n, d)
        run_module(state, config, classify_states=False)  # builds the cached weight tables
        tracemalloc.start()
        try:
            run_module(state, config, classify_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d + 1) * (16 << n)

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_in_place_shift_kernel_keeps_the_copying_bits(self, n):
        # The mask of H^(x)n amps, transformed back in place, keeps the bits of the mask
        # transformed back by a copy.  From n = 2 a real constant register (|+>^n and
        # -|+>^n) skips the butterfly: its parity-0 branch is the register itself, bit for
        # bit, with its squared norm as probability, within 1e-15 of the butterfly's
        # values.  A complex multiple of |+>^n, a Dicke sum, the near miss, the random
        # register and every 1-qubit register take the butterfly.
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
                    got = _branches(amps, _weight_representatives(amps, n), config)
                    for (parity, prob, branch), (p0, b0) in zip(got, copying_shift_branches(amps, n, parities), strict=True):
                        where = (kind, d, prep is None, parity)
                        assert (branch is None) == (b0 is None), where
                        if constant:
                            assert prob == pytest.approx(p0, abs=1e-15) and (prob == 0.0) == (parity != 0), where
                            if b0 is not None:
                                assert np.array_equal(branch.view(np.uint64), amps.view(np.uint64)), where
                                assert np.abs(branch - b0).max() <= 1e-15, where
                            continue
                        assert prob == p0, where
                        if b0 is not None:
                            assert np.array_equal(branch.view(np.uint64), b0.view(np.uint64)), where

    def test_constant_shift_run_makes_no_hadamard_transform(self, monkeypatch):
        calls = []

        def counted(t, n):
            calls.append(n)
            return _hadamard_in_place(t, n)

        monkeypatch.setattr("qparity.module._hadamard_in_place", counted)
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

    @pytest.mark.parametrize("coupling, working", [(CouplingKind.PHASE, 2.5), (CouplingKind.SHIFT, 3.5)], ids=["phase", "shift"])
    def test_branches_are_normalized_in_place(self, coupling, working):
        # Each branch is divided by sqrt(p) in place and owned by its post-state, and a
        # shift branch is transformed in place.  Copying each branch twice more peaked
        # at d+3 (phase) and d+5 (shift) vectors on a random register.
        n, d = 16, 7
        state, config = random_register(n, n), ModuleConfig(n, d, coupling)
        run_module(state, config)  # builds the cached weight tables outside the measurement
        tracemalloc.start()
        try:
            run_module(state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d + working) * (16 << n)

    def test_in_place_hadamard_transform_keeps_the_stacked_butterfly_bits(self):
        g = np.random.default_rng(7)
        for n in range(1, 9):
            for a in (g.normal(size=1 << n) + 1j * g.normal(size=1 << n), np.asfortranarray(g.normal(size=(1 << n, 3)))):
                before = a.copy()
                t = np.array(a, dtype=complex)
                for q in range(n):
                    v = t.reshape(1 << q, 2, -1)
                    t = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
                expect = t.reshape(a.shape) * 2.0 ** (-n / 2)
                got = _hadamard_transform(a, n)
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
                assert np.array_equal(a, before)
                own = np.array(a, dtype=complex, order="C")
                assert _hadamard_in_place(own, n) is own
                assert np.array_equal(own.view(np.uint64), expect.view(np.uint64))

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=7),
        st.sampled_from(list(CouplingKind)),
        st.sampled_from(["default", "custom"]),
        st.sampled_from(["plus", "random", "dicke"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80)
    def test_run_module_matches_sequential_oracle(self, n, d, coupling, ancilla, register, seed):
        # |+>^n and a Dicke sum take both kernels' weight-representative routes.
        g = np.random.default_rng(seed)
        if register == "plus":
            state = plus_state(n)
        elif register == "random":
            state = random_register(seed, n)
        else:
            state = random_dicke_sum(g, n)
        if ancilla == "default":
            config = ModuleConfig(n, d, coupling)
            prep = default_ancilla(d, coupling)
            readout = [default_ancilla(d, coupling, m).amps for m in range(d)]
        else:
            prep = orbit_ancilla(g, d, coupling)
            config = ModuleConfig(n, d, coupling, ancilla_prep=prep)
            step = (pauli_x(d) if coupling is CouplingKind.SHIFT else pauli_z(d)).entries
            readout = [np.linalg.matrix_power(step, m) @ prep.amps for m in range(d)]
        mat = sequential_joint(state, coupling, prep).amps.reshape(1 << n, d)
        records = run_module(state, config, classify_states=False)
        assert [r.outcome_label for r in records] == list(range(d))
        for r, ket in zip(records, readout, strict=True):
            branch = mat @ ket.conj()
            prob = float(np.vdot(branch, branch).real)
            assert r.probability == pytest.approx(prob, abs=1e-12)
            assert r.zero_probability == (prob < ZERO_PROBABILITY_ATOL)
            if not r.zero_probability:
                assert np.abs(r.post_state.amps * math.sqrt(r.probability) - branch).max() <= 1e-12


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

    def test_run_module_respects_cap(self, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "4")
        with pytest.raises(ResourceLimitError, match=FIVE_OVER_FOUR):
            run_module(plus_state(5), ModuleConfig(5, 2), classify_states=False)

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
