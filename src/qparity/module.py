"""Simulation of an n-qubit register coupled once per qubit to one qudit.

Two equivalent couplings are provided.  The phase coupling applies
|0><0| x I + |1><1| x Z_d between each qubit and the ancilla; preparing the
ancilla in the Fourier vector |u_0> and measuring it in the Fourier basis
heralds the total excitation number mod d.  The shift coupling is the
Hadamard conjugate (|+><+| x I + |-><-| x X_d) with a computational-basis
ancilla; it heralds the Hadamard-basis excitation number instead.  The
ancilla outcome only names the class found.  Default outcome m heralds
parity -m mod d (phase) or m (shift).  ``ModuleConfig`` admits any other
ancilla by ``solver.check_orbit`` alone, when its orbit under the step
V = Z_d or X_d (``_step``) is orthonormal; its outcome m finds it at
V^m|prep>, so it heralds parity m.

``run_module`` reports every heralded branch (see ``_branches``).  The module
heralds wt mod d, and the ancilla never needs to exist in memory: branch m is
the class mask, b where wt(x) == parity(m) (mod d) and 0 elsewhere, with
b = amps (phase) or b = H^(x)n amps (shift), and a shift branch is then
transformed back in place.  Its probability is the class's share of |b|^2,
the histogram ``outcome_distribution`` reports, so a run holds d branch
vectors and never the (2^n, d) joint state.  An exact bit check finds two
registers that take their own routes.  On a weight-symmetric register
(|+>^n, and every Dicke sum) with the default phase ancilla, the
per-excitation chain runs on the n + 1 weight representatives and each
branch is gathered by weight; the golden reports print rounding-level Dicke
residuals, so their digest pins that chain's bits.  A shift register of two
or more qubits with one real amplitude (|+>^n up to sign) lies in the
Hadamard class 0, so its parity-0 branch is the register itself and every
other branch is zero, with no Walsh-Hadamard transform.  Each branch is
then divided by its norm in place and becomes its post-state's array, so a
branch is allocated once.

``outcome_distribution`` and ``build_projectors`` work through the
projectors P_i = d^(-1) sum_k w^(-ik) A^k: the mask wt(x) == i (mod d),
read in the computational basis (phase) or after a Walsh-Hadamard transform
(shift).  ``build_projectors`` returns the weight classes; only its
``projectors`` view materializes 2^n x 2^n matrices.  One statevector cap
bounds everything; the view counts each matrix as a 2n-qubit statevector.
The test suite checks both kernels and the projector route against a
sequential-gate oracle and a Fourier-sum oracle.
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
from .linalg import NORM_ATOL, NORMALIZED_ATOL, Ket, Operator, fourier_ket, hamming_weights, pauli_x, pauli_z, require_normalized, weight_classes
from .solver import check_orbit

DEFAULT_STATEVECTOR_MAX_QUBITS = 20
MAX_QUBITS_ENV = "QPARITY_MAX_QUBITS"
# A branch below this probability is reported as zero: a class the input does
# not touch still collects ~1e-32 of rounding, and a real branch carries far more.
ZERO_PROBABILITY_ATOL = 1e-12
# The branch probabilities total |state|^2: a custom ancilla does not enter them, and only
# the default prep, normalized within NORMALIZED_ATOL, reaches the per-excitation chain,
# which scales the total by |prep|^2.  The register guard lets |state|^2 miss 1 by
# 2 NORM_ATOL + NORM_ATOL^2; the rest is room for the readout's rounding, which grows with d.
_PROBABILITY_SUM_ATOL = 6 * NORM_ATOL + NORMALIZED_ATOL
# The symmetry check of ``_weight_representatives`` compares blocks of this many
# amplitudes, so that it needs no temporary of register size.
_BLOCK_ENTRIES = 1 << 15


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

    @property
    def measurement_basis(self) -> str:
        """The basis the default ancilla is read out in: Fourier (phase) or computational (shift)."""
        return "fourier" if self is CouplingKind.PHASE else "computational"


@lru_cache(maxsize=64)
def _step(d: int, coupling: CouplingKind) -> Operator:
    """V, the ancilla step of one excitation: Z_d (phase) or X_d (shift), built once per
    (d, coupling).  ``ModuleConfig`` admits a custom ancilla by its orbit under V."""
    return pauli_z(d) if coupling is CouplingKind.PHASE else pauli_x(d)


@lru_cache(maxsize=64)
def _fourier_readout(d: int) -> np.ndarray:
    """The default phase readout, read-only: row m is |u_m>, and row 0 is the default ancilla."""
    readout = np.array([fourier_ket(d, m).amps for m in range(d)])
    readout.setflags(write=False)
    return readout


@dataclass(frozen=True)
class ModuleConfig:
    """One parity-module run: register size, ancilla dimension, coupling.

    ``ancilla_prep`` defaults to the canonical preparation for the coupling;
    any other normalized d-level state may be supplied.  ``solver.check_orbit``
    admits it at construction only if its orbit under the coupling's step
    (Z_d or X_d) is orthonormal; outcome m then heralds parity m.  A register
    that the statevector cap does not admit is refused here, before any state
    of its size exists.
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
        _check_qubits(self.n)
        prep = self.ancilla_prep
        if prep is not None:
            if prep.dim != self.d:
                raise ValueError(f"ancilla preparation has dimension {prep.dim}, expected {self.d}")
            require_normalized(prep, "ancilla preparation")
            report = check_orbit(_step(self.d, self.coupling), prep, self.d)
            if not report.orthonormal:
                raise ValueError(
                    f"ancilla preparation does not generate an orthonormal orbit "
                    f"(Gram deviation {report.max_deviation:.3e}); heralding would be ambiguous"
                )


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
        need = f"{d} dense {1 << n} x {1 << n} projectors need {8 * d * 4**n} bytes, {8 << 2 * n} each"
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
    """H^(x)n applied along the first axis of ``a``, which has length 2^n, as a new array."""
    return _hadamard_in_place(np.array(a, dtype=complex, order="C"), n)


def _hadamard_in_place(t: np.ndarray, n: int) -> np.ndarray:
    """H^(x)n applied along the first axis of the C-ordered complex array ``t``, in place.

    A butterfly: each qubit pass replaces the halves (lo, hi) by (lo + hi, lo - hi),
    with lo + hi written to one half-size scratch that every pass reuses.
    """
    scratch = np.empty(t.size // 2, dtype=t.dtype)
    for q in range(n):
        v = t.reshape(1 << q, 2, -1)
        lo, hi = v[:, 0], v[:, 1]
        total = np.add(lo, hi, out=scratch.reshape(lo.shape))
        np.subtract(lo, hi, out=hi)
        lo[...] = total
    t *= 2.0 ** (-n / 2)
    return t


def build_projectors(n: int, d: int, coupling: CouplingKind = CouplingKind.PHASE) -> ProjectorSet:
    """The parity projectors P_i = d^(-1) sum_k w^(-ik) A^k as weight classes.

    For the phase coupling P_i is the diagonal mask wt(x) == i (mod d); for
    the shift coupling it is that mask conjugated by H^(x)n.  Takes O(2^n)
    memory; only the ``projectors`` view forms the matrices.
    """
    ModuleConfig(n, d, coupling)
    return ProjectorSet(n=n, d=d, coupling=coupling, classes=weight_classes(n, d))


def _weight_representatives(amps: np.ndarray, n: int) -> np.ndarray | None:
    """amps[(1 << k) - 1] for k = 0..n, the first amplitude of each weight class, when
    every amplitude has the bits of its class's first one; None otherwise.

    The comparison is of bits, not values, so -0.0 and 0.0 differ.  A register that is
    not weight-symmetric almost always fails at its first comparison, amps[1] against
    amps[2]; a symmetric one is compared block by block, with no register-sized temporary.
    """
    if n >= 2 and amps[1] != amps[2]:
        return None
    reps = amps[(1 << np.arange(n + 1)) - 1]
    wts = hamming_weights(n)
    for first in range(0, 1 << n, _BLOCK_ENTRIES):
        block = slice(first, first + _BLOCK_ENTRIES)
        if not np.array_equal(amps[block].view(np.uint64), np.take(reps, wts[block]).view(np.uint64)):
            return None
    return reps


def _real_constant(reps: np.ndarray | None) -> complex | None:
    """reps[0] when every representative has its bits and it is real; None otherwise."""
    if reps is None or reps[0].imag != 0:
        return None
    return reps[0] if np.array_equal(reps.view(np.uint64), np.full_like(reps, reps[0]).view(np.uint64)) else None


def _phase_representatives(reps: np.ndarray, d: int) -> list[np.ndarray]:
    """<u_m| of the coupled state's rows for the n + 1 weight representatives, one array
    per Fourier outcome m: the default phase ancilla's per-excitation chain.

    Row k is reps[k] u_0 z^k with z the diagonal of ``_step(d, PHASE)``: ``np.multiply.outer``
    of ``reps`` with u_0 (the rows ``np.kron`` forms), multiplied one excitation at a time
    as (re, im) <- (re zr - im zi, re zi + im zr), every product and sum rounded on its own
    (level k multiplies rows k..n), and then contracted with each conjugated row of
    ``_fourier_readout(d)`` by ``@``.  This is the only code that reads Fourier rows.
    """
    readout = _fourier_readout(d)
    clock = np.diag(_step(d, CouplingKind.PHASE).entries)
    rows = np.multiply.outer(reps, readout[0])
    re, im = rows.real.T.copy(), rows.imag.T.copy()
    zr, zi = clock.real[:, None], clock.imag[:, None]
    for k in range(1, reps.size):
        r, i = re[:, k:], im[:, k:]
        t = i * zi
        i *= zr
        i += r * zi
        r *= zr
        r -= t
    rows.real, rows.imag = re.T, im.T
    return [rows @ v for v in readout.conj()]


def _heralded(amps: np.ndarray, n: int, d: int, coupling: CouplingKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b = amps (phase) or H^(x)n amps (shift), the weight classes wt mod d, and the
    probability of each class, the histogram of |b|^2 over them."""
    b = amps if coupling is CouplingKind.PHASE else _hadamard_transform(amps, n)
    classes = weight_classes(n, d)
    return b, classes, np.bincount(classes, np.abs(b) ** 2, minlength=d)


def _branches(amps: np.ndarray, reps: np.ndarray | None, config: ModuleConfig):
    """(parity, probability, branch) for each outcome, in outcome order; branch is None
    when the probability is below ``ZERO_PROBABILITY_ATOL``.  ``reps`` is what
    ``_weight_representatives`` returns for ``amps``.  Outcome m of the default
    phase ancilla heralds parity -m mod d, and of every other ancilla parity m.

    The module heralds wt mod d, so branch m is the class mask
    ``np.where(classes == parity, b, 0)`` with b and the probabilities from
    ``_heralded``; in the Hadamard basis every shift coupling is a controlled X_d,
    an exact permutation, and a nonzero shift branch is transformed back in place.
    Two registers that the exact check of ``_weight_representatives`` finds take
    their own routes.  With the default phase ancilla a weight-symmetric register
    (|+>^n and every Dicke sum) runs the per-excitation chain of
    ``_phase_representatives`` on its n + 1 representatives, whose bits the golden
    reports pin, and gathers each branch by weight.  A shift register of n >= 2
    qubits whose every amplitude is one real value (|+>^n up to sign) is
    H^(x)n 2^(n/2) value e_0, all in class 0: its parity-0 branch is a copy of the
    register, with the register's squared norm 2^n value^2 as its probability, and
    every other branch is zero.  Each branch yielded is a new array that the caller
    may normalize in place and keep.
    """
    n, d, coupling = config.n, config.d, config.coupling
    default_phase = coupling is CouplingKind.PHASE and config.ancilla_prep is None
    # Z_d^w u_0 = u_(-w mod d), so Fourier outcome m heralds parity -m mod d.
    parities = [(-m) % d for m in range(d)] if default_phase else range(d)
    value = _real_constant(reps)
    if default_phase and reps is not None:
        wts = hamming_weights(n)
        # Allocated ahead of the chain's small arrays: taken after them, the branches
        # raised symmetric_large's max RSS by 2 MB at n = 18.
        branches = [np.empty(1 << n, dtype=complex) for _ in parities]
        rows = _phase_representatives(reps, d)
        for branch, row in zip(branches, rows):
            np.take(row, wts, out=branch)
        for parity in parities:
            branch = branches.pop(0)  # freed once the caller drops it
            prob = float(np.sum(np.abs(branch) ** 2))
            yield parity, prob, (branch if prob >= ZERO_PROBABILITY_ATOL else None)
    elif coupling is CouplingKind.SHIFT and value is not None and n >= 2:
        norm2 = float(1 << n) * value.real**2
        for parity in parities:
            yield (parity, norm2, amps.copy()) if parity == 0 else (parity, 0.0, None)
    else:
        b, classes, probs = _heralded(amps, n, d, coupling)
        for parity in parities:
            prob = float(probs[parity])
            if prob < ZERO_PROBABILITY_ATOL:
                yield parity, prob, None
                continue
            branch = np.where(classes == parity, b, 0)
            yield parity, prob, (branch if coupling is CouplingKind.PHASE else _hadamard_in_place(branch, n))


def _exact_parity_probability(n: int, d: int, coupling: CouplingKind, parity: int) -> Fraction:
    if coupling is CouplingKind.PHASE:
        return Fraction(projector_dim(parity, n, d), 1 << n)
    # |+>^n is the Hadamard-basis all-zero string: parity 0 with certainty.
    return Fraction(1 if parity == 0 else 0, 1)


def _check_register(state: Ket, config: ModuleConfig) -> None:
    """Statevector input guard; ``config`` has already rejected d < 2, unknown couplings
    and registers over the cap."""
    n = config.n
    if tuple(state.factor_dims) != (2,) * n:
        raise ValueError(f"input factors {state.factor_dims} do not match {n} qubits")
    require_normalized(state, "input state")


def run_module(state: Ket, config: ModuleConfig, *, classify_states: bool = True) -> list[OutcomeRecord]:
    """Couple every qubit to the ancilla once, measure, and report all branches.

    Returns one record per measurement outcome, zero-probability branches
    included but flagged (their post-state and classification are None).
    Probabilities additionally carry an exact rational value when every input
    amplitude has the bits of one real, positive value (|+>^n) and the ancilla
    preparation is the default one.
    """
    _check_register(state, config)
    reps = _weight_representatives(state.amps, config.n)
    value = _real_constant(reps)
    exact_ok = config.ancilla_prep is None and value is not None and value.real > 0
    records = []
    for m, (parity, prob, branch) in enumerate(_branches(state.amps, reps, config)):
        exact = _exact_parity_probability(config.n, config.d, config.coupling, parity) if exact_ok else None
        if branch is None:
            records.append(OutcomeRecord(m, parity, prob, exact, None, None, True))
            continue
        branch /= math.sqrt(prob)
        post = Ket._adopt(branch, (2,) * config.n)
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
    probs = _heralded(state.amps, n, d, coupling)[2].tolist()
    total = sum(probs)
    if not abs(total - 1.0) <= _PROBABILITY_SUM_ATOL:
        raise RuntimeError(f"projector probabilities sum to {total}, not 1")
    return probs
