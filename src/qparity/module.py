"""Simulation of an n-qubit register coupled once per qubit to one qudit.

Two equivalent couplings are provided.  The phase coupling applies
|0><0| x I + |1><1| x Z_d between each qubit and the ancilla; preparing the
ancilla in the Fourier vector |u_0> and measuring it in the Fourier basis
heralds the total excitation number mod d.  The shift coupling is the
Hadamard conjugate (|+><+| x I + |-><-| x X_d) with a computational-basis
ancilla; it heralds the Hadamard-basis excitation number instead.  Which of
the two runs is decided once per (d, coupling), in ``_coupling``.

``run_module`` simulates the couplings on a statevector and reports every
heralded branch.  ``outcome_distribution`` and ``build_projectors`` work
through P_i = d^(-1) sum_k w^(-ik) A^k instead: the mask wt(x) == i (mod d),
read in the computational basis (phase) or after a Walsh-Hadamard transform
(shift).  ``build_projectors`` returns the weight classes; only its
``projectors`` view materializes 2^n x 2^n matrices, all of them real: the
phase projector is diag(mask), and the shift projector's entry (x, y) is
read at x XOR y off one Walsh-Hadamard transform of the mask.  One
statevector cap bounds everything; the view counts each matrix as a 2n-qubit
statevector.  The test suite checks both routes against a sequential-gate
oracle and a Fourier-sum oracle.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import states
from .linalg import Ket, Operator, fourier_ket, hadamard, hamming_weights, pauli_x, pauli_z

DEFAULT_STATEVECTOR_MAX_QUBITS = 20
MAX_QUBITS_ENV = "QPARITY_MAX_QUBITS"
ZERO_PROBABILITY_ATOL = 1e-12
_ORBIT_BASIS_ATOL = 1e-8
# Float64 rounding leaves a normalized state's norm within ~1e-15 of 1; an unnormalized one misses by far more.
_NORM_ATOL = 1e-10
# The branch probabilities are d rounded sums of |amplitude|^2; a unitary coupling keeps their total at 1.
_PROBABILITY_SUM_ATOL = 1e-10
# Exact rational probabilities are reported only when every amplitude is 2^(-n/2) up to rounding.
_UNIFORM_PLUS_ATOL = 1e-12


class ResourceLimitError(RuntimeError):
    """Requested register size exceeds the configured simulation envelope."""


def statevector_qubit_limit() -> int:
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_STATEVECTOR_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be positive, got {value}")
    return value


def _check_qubits(qubits: int, request: str | None = None) -> None:
    """Raise unless a ``qubits``-qubit statevector fits the cap, stating the bytes asked for."""
    cap = statevector_qubit_limit()
    if qubits > cap:
        request = request or f"{qubits} qubits need {16 << qubits} bytes"
        raise ResourceLimitError(f"statevector path limited to {16 << cap} bytes ({cap} qubits); {request}")


class CouplingKind(Enum):
    PHASE = "phase"
    SHIFT = "shift"


@dataclass(frozen=True, eq=False)
class _Coupling:
    """What ``run_module`` needs of one (d, coupling); every array is read-only.

    ``step`` is V, the ancilla step of one excitation: Z_d (phase) or X_d
    (shift).  ``gate`` is the (2d) x (2d) qubit-ancilla interaction, qubit
    factor first.  ``readout`` holds the measurement kets, one row per
    outcome, and row 0 is the default ancilla; outcome m heralds
    ``parities[m]``.  ``basis`` names the readout basis.
    """

    step: np.ndarray
    gate: np.ndarray
    readout: np.ndarray
    parities: tuple[int, ...]
    basis: str


@lru_cache(maxsize=64)
def _coupling(d: int, coupling: CouplingKind) -> _Coupling:
    """The coupling's step, gate and default readout, built once per (d, coupling)."""
    if coupling is CouplingKind.PHASE:
        ctrl0 = np.diag([1.0 + 0j, 0.0])
        ctrl1 = np.diag([0.0 + 0j, 1.0])
        step = pauli_z(d).entries
        readout = np.array([fourier_ket(d, m).amps for m in range(d)])
        parities = tuple((-m) % d for m in range(d))
        basis = "fourier"
    else:
        h = hadamard().entries
        ctrl0 = h @ np.diag([1.0 + 0j, 0.0]) @ h
        ctrl1 = h @ np.diag([0.0 + 0j, 1.0]) @ h
        step = pauli_x(d).entries
        readout = np.eye(d, dtype=complex)
        parities = tuple(range(d))
        basis = "computational"
    gate = np.kron(ctrl0, np.eye(d, dtype=complex)) + np.kron(ctrl1, step)
    gate.setflags(write=False)
    readout.setflags(write=False)
    return _Coupling(step, gate, readout, parities, basis)


@dataclass(frozen=True)
class ModuleConfig:
    """One parity-module run: register size, ancilla dimension, coupling.

    ``ancilla_prep`` defaults to the canonical preparation for the coupling;
    any other normalized d-level state may be supplied as long as its orbit
    under the coupling operator (Z_d or X_d) is orthonormal, in which case
    the measurement is taken in that orbit basis and outcome m heralds
    parity m directly.
    """

    n: int
    d: int
    coupling: CouplingKind = CouplingKind.PHASE
    ancilla_prep: Ket | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got {self.n}")
        if self.d < 2:
            raise ValueError(f"a d=1 ancilla carries no parity information (got d={self.d})")
        if not isinstance(self.coupling, CouplingKind):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.ancilla_prep is not None:
            if self.ancilla_prep.dim != self.d:
                raise ValueError(
                    f"ancilla preparation has dimension {self.ancilla_prep.dim}, expected {self.d}"
                )
            if not abs(self.ancilla_prep.norm() - 1.0) <= _NORM_ATOL:
                raise ValueError("ancilla preparation must be normalized")


@dataclass(frozen=True)
class OutcomeRecord:
    """One heralded measurement branch."""

    outcome_label: int
    parity: int
    probability: float
    probability_exact: Fraction | None
    post_state: Ket | None
    classification: states.ClassificationResult | None
    zero_probability: bool


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """The d parity projectors of a coupling as weight classes: P_i is the mask
    ``classes == i``, conjugated by H^(x)n for the shift coupling."""

    n: int
    d: int
    coupling: CouplingKind
    classes: np.ndarray

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """Rank of each P_i: the size of weight class i."""
        return tuple(int(c) for c in np.bincount(self.classes, minlength=self.d))

    @cached_property
    def projectors(self) -> tuple[Operator, ...]:
        """The P_i as dense 2^n x 2^n matrices, each as large as a 2n-qubit statevector.

        A phase projector is diag(mask_i).  A shift projector H^(x)n diag(mask_i) H^(x)n
        has entries 2^(-n) sum_z (-1)^(z.(x^y)) mask_i[z], which depend on x XOR y
        only: P_i[x, y] = g_i[x ^ y] with the real g_i = 2^(-n/2) H^(x)n mask_i, so
        the view is a gather, not a matrix product.
        """
        n, d = self.n, self.d
        need = f"{d} dense {1 << n} x {1 << n} projectors need {16 * d * 4**n} bytes, {16 << 2 * n} each"
        _check_qubits(2 * n, need)
        masks = np.array([self.classes == i for i in range(d)], dtype=float)
        if self.coupling is CouplingKind.PHASE:
            return tuple(Operator(np.diag(mask)) for mask in masks)
        g = _hadamard_transform(masks.T, n).real.T * 2.0 ** (-n / 2)
        index = np.arange(1 << n)
        xor = index[:, None] ^ index
        return tuple(Operator(g_i[xor]) for g_i in g)


def projector_dim(i: int, n: int, d: int) -> int:
    """Rank of the parity-i projector: sum of C(n, j) over j == i (mod d)."""
    if n < 1 or d < 2:
        raise ValueError(f"invalid register/ancilla sizes n={n}, d={d}")
    if not 0 <= i < d:
        raise IndexError(f"parity {i} outside [0, {d})")
    return sum(math.comb(n, j) for j in range(i, n + 1, d))


def _hadamard_transform(a: np.ndarray, n: int) -> np.ndarray:
    """H^(x)n applied along the first axis of ``a``, which has length 2^n."""
    t = np.array(a, dtype=complex)
    for q in range(n):
        v = t.reshape(1 << q, 2, -1)
        t = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
    return t.reshape(a.shape) * 2.0 ** (-n / 2)


def build_projectors(n: int, d: int, coupling: CouplingKind = CouplingKind.PHASE) -> ProjectorSet:
    """The parity projectors P_i = d^(-1) sum_k w^(-ik) A^k as weight classes.

    For the phase coupling P_i is the diagonal mask wt(x) == i (mod d); for
    the shift coupling it is that mask conjugated by H^(x)n.  Takes O(2^n)
    memory; only the ``projectors`` view forms the matrices.
    """
    ModuleConfig(n, d, coupling)
    _check_qubits(n)
    classes = hamming_weights(n) % d
    classes.setflags(write=False)
    return ProjectorSet(n=n, d=d, coupling=coupling, classes=classes)


def _apply_gate(amps: np.ndarray, dims: tuple[int, ...], gate: np.ndarray, ax_a: int, ax_b: int) -> np.ndarray:
    """``gate`` applied to tensor factors ``ax_a`` and ``ax_b`` of a flat amplitude array."""
    t = np.moveaxis(amps.reshape(dims), (ax_a, ax_b), (0, 1))
    out = gate @ t.reshape(t.shape[0] * t.shape[1], -1)
    return np.moveaxis(out.reshape(t.shape), (0, 1), (ax_a, ax_b)).reshape(-1)


def _is_uniform_plus(state: Ket) -> bool:
    target = 2.0 ** (-len(state.factor_dims) / 2)
    return bool(np.max(np.abs(state.amps - target)) <= _UNIFORM_PLUS_ATOL)


def _exact_parity_probability(n: int, d: int, coupling: CouplingKind, parity: int) -> Fraction:
    if coupling is CouplingKind.PHASE:
        return Fraction(projector_dim(parity, n, d), 1 << n)
    # |+>^n is the Hadamard-basis all-zero string: parity 0 with certainty.
    return Fraction(1 if parity == 0 else 0, 1)


def _orbit_readout(step: np.ndarray, prep: Ket) -> np.ndarray:
    """Orbit kets V^m|prep>, one row per outcome m; raises unless they are orthonormal."""
    d = prep.dim
    vecs = np.empty((d, d), dtype=complex)
    v = np.array(prep.amps)
    for m in range(d):
        vecs[m] = v
        v = step @ v
    gram = vecs.conj() @ vecs.T
    dev = float(np.abs(gram - np.eye(d)).max())
    if dev > _ORBIT_BASIS_ATOL:
        raise ValueError(
            f"ancilla preparation does not generate an orthonormal orbit "
            f"(Gram deviation {dev:.3e}); heralding would be ambiguous"
        )
    return vecs


def _check_register(state: Ket, config: ModuleConfig) -> None:
    """Statevector input guard; ``config`` has already rejected d < 2 and unknown couplings."""
    n = config.n
    if tuple(state.factor_dims) != (2,) * n:
        raise ValueError(f"input factors {state.factor_dims} do not match {n} qubits")
    _check_qubits(n)
    if not abs(state.norm() - 1.0) <= _NORM_ATOL:
        raise ValueError(f"input state must be normalized, norm is {state.norm():.12f}")


def run_module(state: Ket, config: ModuleConfig, *, classify_states: bool = True) -> list[OutcomeRecord]:
    """Couple every qubit to the ancilla once, measure, and report all branches.

    Returns one record per measurement outcome, zero-probability branches
    included but flagged (their post-state and classification are None).
    Probabilities additionally carry an exact rational value when the input
    is exactly |+>^n and the ancilla preparation is the default one.
    """
    _check_register(state, config)
    setup = _coupling(config.d, config.coupling)
    custom = config.ancilla_prep is not None
    if custom:
        # Outcome m finds the ancilla at V^m|prep>, so it heralds parity m.
        prep = config.ancilla_prep.amps
        vecs, parities = _orbit_readout(setup.step, config.ancilla_prep), tuple(range(config.d))
    else:
        prep, vecs, parities = setup.readout[0], setup.readout, setup.parities
    # One gate per qubit on bare amplitudes, no per-qubit Ket copy and norm.
    dims = (2,) * config.n + (config.d,)
    amps = np.kron(state.amps, prep)
    for q in range(config.n):
        amps = _apply_gate(amps, dims, setup.gate, q, config.n)
    mat = amps.reshape(1 << config.n, config.d)
    exact_ok = (not custom) and _is_uniform_plus(state)
    records = []
    for m in range(config.d):
        branch = mat @ vecs[m].conj()
        prob = float(np.sum(np.abs(branch) ** 2))
        parity = parities[m]
        exact = (
            _exact_parity_probability(config.n, config.d, config.coupling, parity)
            if exact_ok
            else None
        )
        if prob < ZERO_PROBABILITY_ATOL:
            records.append(
                OutcomeRecord(m, parity, prob, exact, None, None, True)
            )
            continue
        post = Ket(branch / math.sqrt(prob), (2,) * config.n, normalized=True)
        cls = states.classify(post) if classify_states else None
        records.append(OutcomeRecord(m, parity, prob, exact, post, cls, False))
    total = sum(r.probability for r in records)
    if not abs(total - 1.0) <= _PROBABILITY_SUM_ATOL:
        raise RuntimeError(f"branch probabilities sum to {total}, not 1")
    return records


def outcome_distribution(state: Ket, n: int, d: int, coupling: CouplingKind = CouplingKind.PHASE) -> list[float]:
    """Heralding distribution p(j) = <state| P_j |state> as a weight histogram.

    p(j) sums |amplitude|^2 over the basis strings of weight j mod d, read
    in the computational basis (phase) or the Hadamard basis (shift).
    """
    _check_register(state, ModuleConfig(n, d, coupling))
    amps = state.amps if coupling is CouplingKind.PHASE else _hadamard_transform(state.amps, n)
    probs = np.bincount(hamming_weights(n) % d, np.abs(amps) ** 2, minlength=d).tolist()
    total = sum(probs)
    if not abs(total - 1.0) <= _PROBABILITY_SUM_ATOL:
        raise RuntimeError(f"projector probabilities sum to {total}, not 1")
    return probs
