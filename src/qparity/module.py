"""Simulation of an n-qubit register coupled once per qubit to one qudit.

Two equivalent couplings are provided.  The phase coupling applies
|0><0| x I + |1><1| x Z_d between each qubit and the ancilla; preparing the
ancilla in the Fourier vector |u_0> and measuring it in the Fourier basis
heralds the total excitation number mod d.  The shift coupling is the
Hadamard conjugate (|+><+| x I + |-><-| x X_d) with a computational-basis
ancilla; it heralds the Hadamard-basis excitation number instead.  The
ancilla outcome only names the class found.  Default outcome m heralds
parity -m mod d (phase) or m (shift).  ``ModuleConfig`` admits any other
ancilla by ``solver.orbit_deviation`` alone, when its orbit under the step
V = Z_d or X_d, read off V's eigenvalues without building V, is orthonormal;
its outcome m finds it at V^m|prep>, so it heralds parity m.

``run_module`` reports every heralded branch (see ``_branches``).  The module
heralds wt mod d, and the ancilla never needs to exist in memory: branch m is
the class mask, b where wt(x) == parity(m) (mod d) and 0 elsewhere, with
b = amps (phase) or b = H^(x)n amps (shift).  Its probability is the class's
share of |b|^2, the histogram ``outcome_distribution`` reports.  A branch is
held as its class's part of b: it is classified from the per-weight sums of b
by ``states.classify_slice``, and its post-state, a ``_MaskPost``, forms its
2^n amplitudes only when they are read.  So a run holds no branch vector and
never the (2^n, d) joint state, and a shift run makes one call of the butterfly
``_hadamard_rows``, the forward transform, whatever d is.  One register takes
its own route: a real constant (|+>^n up to sign), found by an exact bit check.
With the default phase ancilla it runs the per-excitation chain on n + 1
copies of its value and each branch is gathered by weight and classified by
``states.classify``; the golden reports print rounding-level Dicke residuals
of |+>^n, so their digest pins that chain's bits.  With the shift coupling
and two or more qubits it lies in the Hadamard class 0, so its parity-0
branch is the register itself and every other branch is zero, with no
Walsh-Hadamard transform; that branch is classified from its n + 1 Dicke
overlaps by ``states.classify_symmetric``.  Every post-state is its branch
scaled in place by the reciprocal root of the probability it reports,
P_m psi / sqrt(p_m), so it is allocated once and summed once.

``outcome_distribution`` and ``build_projectors`` work through the
projectors P_i = d^(-1) sum_k w^(-ik) A^k: the mask wt(x) == i (mod d),
read in the computational basis (phase) or after a Walsh-Hadamard transform
(shift).  ``build_projectors`` returns the weight classes, and its
``generators`` one row per class that each P_i is read from; only its
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
from .linalg import NORM_ATOL, NORMALIZED_ATOL, Ket, Operator, hamming_weights, omega, pauli_z, require_normalized, squared_norm, weight_classes, weight_order
from .solver import ORBIT_ATOL, orbit_deviation

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
# ``_real_constant`` compares the register with its first amplitude in blocks of this
# many amplitudes, so that it needs no temporary of register size, and ``_hadamard_rows``
# transforms rows in groups of at most this many amplitudes (512 KiB).
_BLOCK_ENTRIES = 1 << 15


class ResourceLimitError(RuntimeError):
    """Requested register size exceeds the configured simulation envelope."""


class _ProbabilitySumError(RuntimeError):
    """Branch or projector probabilities whose total misses 1 by more than ``_PROBABILITY_SUM_ATOL``."""


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


def _statevector_bytes(qubits: int) -> str:
    """16 * 2^qubits, the bytes of a ``qubits``-qubit statevector: in decimal below 2^64,
    else as a power of two, so that no integer of 2^qubits bits is built."""
    return str(16 << qubits) if qubits < 60 else f"2^{qubits + 4}"


def _check_qubits(qubits: int, cap: int, request: str | None = None) -> None:
    """Raise unless a ``qubits``-qubit statevector fits ``cap`` qubits, stating the bytes asked for."""
    if qubits > cap:
        request = request or f"{qubits} qubits need {_statevector_bytes(qubits)} bytes"
        raise ResourceLimitError(f"statevector path limited to {_statevector_bytes(cap)} bytes ({cap} qubits); {request}")


def _check_matrix(d: int, cap: int, what: str) -> None:
    """Raise unless a d x d complex matrix, 16 d^2 bytes, fits ``cap`` qubits: d^2 > 2^cap
    exactly when d^2 - 1 needs more than cap bits."""
    # A custom ancilla or solve drive builds no matrix: the cap bounds its Gram row's d * d products.
    _check_qubits((d * d - 1).bit_length(), cap, f"{what} needs {16 * d * d} bytes as a {d} x {d} complex matrix")


class CouplingKind(Enum):
    PHASE = "phase"
    SHIFT = "shift"

    @property
    def measurement_basis(self) -> str:
        """The basis the default ancilla is read out in: Fourier (phase) or computational (shift)."""
        return "fourier" if self is CouplingKind.PHASE else "computational"


@lru_cache(maxsize=64)
def _clock(d: int) -> Operator:
    """Z_d, built once per d: the per-excitation chain multiplies by its diagonal."""
    return pauli_z(d)


@lru_cache(maxsize=64)
def _fourier_readout(d: int) -> np.ndarray:
    """The default phase readout, read-only: row m is |u_m> = d^(-1/2) sum_j w^(-mj) |j>, by
    ``linalg.fourier_ket``'s expression, and row 0 is the default ancilla."""
    j = np.arange(d)
    # No row is checked as fourier_ket checks it: the powers of w can miss its norm check
    # by rounding alone (fourier_ket(d, m) does for some m at 185 values of d in [2, 400)).
    rows = [omega(d) ** (-m * j) / math.sqrt(d) for m in range(d)]
    # Row 0, d equal amplitudes that always pass, is still made a checked Ket for one
    # reason: the benchmark's traced-pass test requires a ``linalg.ket`` span on a |+>^n
    # run, and this was its only source.  The check goes with ROADMAP item 1a.
    rows[0] = Ket(rows[0], (d,), normalized=True).amps
    readout = np.array(rows)
    readout.setflags(write=False)
    return readout


@dataclass(frozen=True)
class ModuleConfig:
    """One parity-module run: register size, ancilla dimension, coupling.

    ``ancilla_prep`` defaults to the canonical preparation for the coupling;
    any other normalized d-level state may be supplied.  ``solver.orbit_deviation``
    admits it at construction only if its orbit under the coupling's step
    (Z_d or X_d) is orthonormal; outcome m then heralds parity m.  A register
    that the statevector cap does not admit is refused here, before any state
    of its size exists, and so is a d-level ancilla longer than 2^cap levels,
    or a custom one whose d^2 orbit products the cap does not admit.
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
        cap = statevector_qubit_limit()
        _check_qubits(self.n, cap)
        # d > 2^cap exactly when d - 1 needs more than cap bits.
        _check_qubits((self.d - 1).bit_length(), cap, f"a {self.d}-level ancilla needs {16 * self.d} bytes")
        prep = self.ancilla_prep
        if prep is not None:
            if prep.dim != self.d:
                raise ValueError(f"ancilla preparation has dimension {prep.dim}, expected {self.d}")
            require_normalized(prep, "ancilla preparation")
            _check_matrix(self.d, cap, f"a custom {self.d}-level ancilla's step")
            # Z_d|k> = w^k|k> and X_d|u_k> = w^k|u_k>, where <u_k|prep> is the unitary inverse DFT.
            phi = prep.amps if self.coupling is CouplingKind.PHASE else np.fft.ifft(prep.amps, norm="ortho")
            dev = orbit_deviation(omega(self.d) ** np.arange(self.d), phi, self.d)
            if not dev <= ORBIT_ATOL:
                raise ValueError(
                    f"ancilla preparation does not generate an orthonormal orbit "
                    f"(Gram deviation {dev:.3e}); heralding would be ambiguous"
                )


@dataclass(frozen=True)
class OutcomeRecord:
    """One heralded measurement branch.

    ``post_state`` is None for a zero-probability branch.  On the mask route it is a
    ``_MaskPost``, whose amplitudes are formed on their first ``.amps`` read; the
    normalization check every normalized ``Ket`` makes runs then, and a ValueError it
    raises surfaces at that read, not in ``run_module``.
    """

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
    def generators(self) -> np.ndarray:
        """One row g_i for each class i <= n, the classes a weight reaches, read-only: the
        mask ``classes == i`` (phase), or 2^(-n/2) H^(x)n mask_i (shift), complex, so that
        its imaginary part can be checked.  P_i is diag(g_i) (phase), or the matrix
        g_i[x ^ y] (shift): a shift projector H^(x)n diag(mask_i) H^(x)n has entries
        2^(-n) sum_z (-1)^(z.(x^y)) mask_i[z], which depend on x XOR y only."""
        n = self.n
        masks = np.array([self.classes == i for i in range(min(self.d, n + 1))], dtype=float)
        if self.coupling is CouplingKind.PHASE:
            gens = masks
        else:
            gens = _hadamard_rows(masks.astype(complex), n)
            # Both parts scaled as float64, so the real part has the bits of real * 2^(-n/2).
            parts = gens.view(np.float64)
            parts *= 2.0 ** (-n / 2)
        gens.setflags(write=False)
        return gens

    @cached_property
    def projectors(self) -> tuple[Operator, ...]:
        """The P_i as dense 2^n x 2^n matrices, each as large as a 2n-qubit statevector.

        Each is built from its generator (``generators``): a phase view is diag(g_i), and
        a shift view is the gather g_i.real[x ^ y], not a matrix product.  Every empty
        class (d > n + 1) shares one frozen zero matrix, so the view holds at most n + 2
        matrices whatever d is.
        """
        n, d = self.n, self.d
        full = min(d, n + 1)
        empty = d - full
        shared = f" and one zero shared by {empty} empty classes" if empty else ""
        need = f"{full} dense {1 << n} x {1 << n} projectors{shared} need {(full + bool(empty)) * 8 << 2 * n} bytes, {8 << 2 * n} each"
        _check_qubits(2 * n, statevector_qubit_limit(), need)
        if self.coupling is CouplingKind.PHASE:
            views = [Operator(np.diag(g_i)) for g_i in self.generators]
        else:
            index = np.arange(1 << n)
            xor = index[:, None] ^ index
            views = [Operator(g_i.real[xor]) for g_i in self.generators]
        zero = [Operator(np.zeros((1 << n, 1 << n)))] if empty else []
        return tuple(views + zero * empty)


def projector_dim(i: int, n: int, d: int) -> int:
    """Rank of the parity-i projector: sum of C(n, j) over j == i (mod d)."""
    if n < 1 or d < 2:
        raise ValueError(f"invalid register/ancilla sizes n={n}, d={d}")
    if not 0 <= i < d:
        raise IndexError(f"parity {i} outside [0, {d})")
    return sum(math.comb(n, j) for j in range(i, n + 1, d))


def _group_rows(n: int) -> int:
    """Rows of 2^n amplitudes in one group of ``_hadamard_rows``: at most ``_BLOCK_ENTRIES``
    amplitudes, or one row when 2^n is larger."""
    return max(1, _BLOCK_ENTRIES >> n)


def _hadamard_rows(t: np.ndarray, n: int) -> np.ndarray:
    """H^(x)n applied in place to every row of the C-ordered (r, 2^n) complex array ``t``.

    A butterfly, one group of ``_group_rows(n)`` rows at a time: each qubit pass, most
    significant bit first, replaces the halves (lo, hi) of every row by (lo + hi, lo - hi),
    with lo + hi written to one scratch of half a group that every pass reuses.  Each row
    keeps the bits of the same butterfly run on that row alone.
    """
    rows = _group_rows(n)
    scratch = np.empty(min(rows, t.shape[0]) << (n - 1), dtype=t.dtype)
    scale = 2.0 ** (-n / 2)
    for first in range(0, t.shape[0], rows):
        group = t[first : first + rows]
        for q in range(n):
            v = group.reshape(group.shape[0], 1 << q, 2, -1)
            lo, hi = v[:, :, 0], v[:, :, 1]
            total = np.add(lo, hi, out=scratch[: lo.size].reshape(lo.shape))
            np.subtract(lo, hi, out=hi)
            lo[...] = total
        group *= scale
    return t


def build_projectors(n: int, d: int, coupling: CouplingKind = CouplingKind.PHASE) -> ProjectorSet:
    """The parity projectors P_i = d^(-1) sum_k w^(-ik) A^k as weight classes.

    For the phase coupling P_i is the diagonal mask wt(x) == i (mod d); for
    the shift coupling it is that mask conjugated by H^(x)n.  Takes O(2^n)
    memory; only the ``projectors`` view forms the matrices.
    """
    ModuleConfig(n, d, coupling)
    return ProjectorSet(n=n, d=d, coupling=coupling, classes=weight_classes(n, d))


def _real_constant(amps: np.ndarray) -> complex | None:
    """amps[0] when it is real and every amplitude has its bits (|+>^n up to sign); None
    otherwise.  The comparison is of bits, not values, so -0.0 and 0.0 differ, and it
    runs block by block against one block of the value, with no register-sized temporary."""
    value = amps[0]
    if value.imag != 0:
        return None
    ref = np.full(min(amps.size, _BLOCK_ENTRIES), value).view(np.uint64)
    for first in range(0, amps.size, _BLOCK_ENTRIES):
        block = amps[first : first + _BLOCK_ENTRIES].view(np.uint64)
        if not np.array_equal(block, ref[: block.size]):
            return None
    return value


def _phase_representatives(value: complex, n: int, d: int) -> list[np.ndarray]:
    """<u_m| of the coupled state's rows for the n + 1 weights of a constant register,
    one array per Fourier outcome m: the default phase ancilla's per-excitation chain.

    Row k is value u_0 z^k with z the diagonal of ``_clock(d)``: ``np.multiply.outer``
    of ``np.full(n + 1, value)`` with u_0 (the rows ``np.kron`` forms), multiplied one
    excitation at a time as (re, im) <- (re zr - im zi, re zi + im zr), every product and
    sum rounded on its own (level k multiplies rows k..n), and then contracted with each
    conjugated row of ``_fourier_readout(d)`` by ``@``.  This is the only code that reads
    Fourier rows.
    """
    readout = _fourier_readout(d)
    clock = np.diag(_clock(d).entries)
    rows = np.multiply.outer(np.full(n + 1, value), readout[0])
    re, im = rows.real.T.copy(), rows.imag.T.copy()
    zr, zi = clock.real[:, None], clock.imag[:, None]
    for k in range(1, n + 1):
        r, i = re[:, k:], im[:, k:]
        t = i * zi
        i *= zr
        i += r * zi
        r *= zr
        r -= t
    rows.real, rows.imag = re.T, im.T
    return [rows @ v.conj() for v in readout]


def _heralded(amps: np.ndarray, n: int, d: int, coupling: CouplingKind) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """b = amps (phase) or H^(x)n amps (shift), the weight classes wt mod d, and the
    probability of each class: |b|^2 summed pairwise over each weight in ``weight_order``,
    and the weights of a class added by ``math.fsum``, so the rounding does not grow with 2^n."""
    b = amps if coupling is CouplingKind.PHASE else _hadamard_rows(np.array(amps, dtype=complex)[None], n)[0]
    order, starts = weight_order(n)
    per_weight = np.add.reduceat(np.square(np.abs(b))[order], starts[:-1]).tolist()
    return b, weight_classes(n, d), [math.fsum(per_weight[i::d]) for i in range(d)]


def _constant_shift(value: complex | None, config: ModuleConfig) -> bool:
    """Whether a register whose ``_real_constant`` is ``value`` takes the constant shift route:
    |+>^n up to sign under the shift coupling, with n >= 2 so that it lies in Hadamard class 0."""
    return config.coupling is CouplingKind.SHIFT and value is not None and config.n >= 2


def _scaled(branch: np.ndarray, prob: float) -> np.ndarray:
    """``branch``, a flat complex array no one else holds, scaled in place by 1 / sqrt(prob)."""
    # Complex division by sqrt(p) multiplies both parts by 1 / sqrt(p); so does this, on
    # the float pairs, with every nonzero component's bits and without a complex loop.
    parts = branch.view(np.float64)
    parts *= 1.0 / math.sqrt(prob)
    return branch


def _post_state(branch: np.ndarray, prob: float, n: int) -> Ket:
    """P_m psi / sqrt(p_m): ``branch`` scaled in place by ``_scaled`` and adopted by a normalized Ket."""
    return Ket._adopt(_scaled(branch, prob), (2,) * n)


class _MaskPost(Ket):
    """A mask-route post-state P_m psi / sqrt(p_m), held as b and its class until its
    amplitudes are read.

    ``amps`` is formed on first read and then kept: the class mask
    ``np.where(classes == parity, b, 0)``, for the shift coupling transformed back by a
    one-row ``_hadamard_rows`` call, then scaled by ``_post_state``.  ``dim``,
    ``factor_dims`` and ``normalized`` form nothing.  b is read-only, so the amplitudes
    do not depend on when they are read.
    """

    def __init__(self, b: np.ndarray, classes: np.ndarray, parity: int, prob: float, shift: bool) -> None:
        object.__setattr__(self, "factor_dims", (2,) * (b.size.bit_length() - 1))
        object.__setattr__(self, "normalized", True)
        object.__setattr__(self, "_branch", (b, classes, parity, prob, shift))

    @property
    def amps(self) -> np.ndarray:
        formed = vars(self).get("_amps")
        if formed is None:
            formed = self._form()
            object.__setattr__(self, "_amps", formed)
        return formed

    @property
    def dim(self) -> int:
        return 1 << len(self.factor_dims)

    def _mask(self) -> np.ndarray:
        b, classes, parity, _, _ = self._branch
        return np.where(classes == parity, b, 0)

    def _frame(self) -> np.ndarray:
        """The scaled mask, a new array: the post-state's amplitudes for the phase coupling,
        and H^(x)n of them for the shift coupling."""
        return _scaled(self._mask(), self._branch[3])

    def _form(self) -> np.ndarray:
        """A new array of the post-state's amplitudes, read-only."""
        _, _, _, prob, shift = self._branch
        branch = self._mask()
        if shift:
            _hadamard_rows(branch[None], len(self.factor_dims))
        return _post_state(branch, prob, len(self.factor_dims)).amps


def _branches(amps: np.ndarray, value: complex | None, config: ModuleConfig, classify_states: bool = True):
    """(parity, probability, post-state, classification) for each outcome, in outcome
    order; the post-state and classification are None when the probability is below
    ``ZERO_PROBABILITY_ATOL``, and the classification is None without ``classify_states``.
    ``value`` is what ``_real_constant`` returns for ``amps``, which must be read-only.
    Outcome m of the default phase ancilla heralds parity -m mod d, and of every other
    ancilla parity m.

    The module heralds wt mod d, so branch m is the class mask of b, with b and the
    probabilities from ``_heralded``; in the Hadamard basis every shift coupling is a
    controlled X_d, an exact permutation.  Its post-state is a ``_MaskPost``, which
    forms its 2^n amplitudes only when they are read, so a shift run makes one
    ``_hadamard_rows`` call, the forward one, whatever d is.  It is classified by
    ``states.classify_slice`` from ``states.weight_sums(b)``, one pass over b for all d
    branches, and its own 2^n amplitudes only where that cannot do: the product test,
    on the mask of b, and the phase lead of a shift branch whose first amplitude is
    below the floor, on a post-state formed for the purpose and dropped.
    Only a real constant register (|+>^n up to sign) takes its own routes.  With the
    default phase ancilla it runs the per-excitation chain of ``_phase_representatives``,
    whose bits the golden reports pin, gathers each branch by weight, reports its
    ``squared_norm`` and classifies it by ``states.classify``; it holds an array for
    each of the at most n + 1 parities that are weights, and gathers every other
    (rounding-level) branch in turn into one spare array.  With the shift coupling
    and n >= 2 it is H^(x)n 2^(n/2) value e_0, all in class 0: its parity-0 branch is a
    copy of the register, with the register's squared norm 2^n value^2 as its
    probability, classified from its n + 1 Dicke overlaps by
    ``states.classify_symmetric``, and every other branch is zero.
    """
    n, d, coupling = config.n, config.d, config.coupling
    default_phase = coupling is CouplingKind.PHASE and config.ancilla_prep is None
    # Z_d^w u_0 = u_(-w mod d), so Fourier outcome m heralds parity -m mod d.
    parities = [(-m) % d for m in range(d)] if default_phase else range(d)
    if default_phase and value is not None:
        _check_matrix(d, statevector_qubit_limit(), f"the Fourier readout of a {d}-level ancilla")
        wts = hamming_weights(n)
        # Only a parity p <= n has weights, so at most n + 1 branches are more than rounding
        # whatever d is.  Each of them gets its own array; every other branch is gathered in
        # turn into one spare array, which reports its (rounding-level) probability.
        # Allocated ahead of the chain's small arrays: taken after them, the branches
        # raised symmetric_large's max RSS by 2 MB at n = 18.
        held = {parity: np.empty(1 << n, dtype=complex) for parity in parities if parity <= n}
        spare = np.empty(1 << n, dtype=complex) if d > n + 1 else None
        rows = _phase_representatives(value, n, d)
        # mode="raise" would gather into a register-sized buffer before copying to ``out``;
        # every weight indexes the n + 1 entries of a row, so "clip" clips nothing.
        for parity, row in zip(parities, rows):
            if parity <= n:
                np.take(row, wts, out=held[parity], mode="clip")
        for parity, row in zip(parities, rows):
            # A held branch is freed once the caller drops it.
            branch = held.pop(parity) if parity <= n else np.take(row, wts, out=spare, mode="clip")
            prob = squared_norm(branch)
            if prob < ZERO_PROBABILITY_ATOL:
                yield parity, prob, None, None
                continue
            post = _post_state(branch if parity <= n else branch.copy(), prob, n)
            yield parity, prob, post, states.classify(post) if classify_states else None
    elif _constant_shift(value, config):
        prob = float(1 << n) * value.real**2
        for parity in parities:
            if parity != 0:
                yield parity, 0.0, None, None
                continue
            post = _post_state(amps.copy(), prob, n)
            cls = None
            if classify_states:
                # The one nonzero branch is the register itself: |a_0| sqrt(C(n, k)) on D(n, k).
                overlaps = abs(post.amps[0]) * np.sqrt([math.comb(n, k) for k in range(n + 1)])
                cls = states.classify_symmetric(n, overlaps)
            yield parity, prob, post, cls
    else:
        b, classes, probs = _heralded(amps, n, d, coupling)
        shift = coupling is CouplingKind.SHIFT
        if shift:
            b.setflags(write=False)  # the route's own transform, which every post-state reads
        sums = states.weight_sums(b) if classify_states else None
        for parity in parities:
            prob = probs[parity]
            if prob < ZERO_PROBABILITY_ATOL:
                yield parity, prob, None, None
                continue
            post = _MaskPost(b, classes, parity, prob, shift)
            cls = None
            if sums is not None:
                weights = range(parity, n + 1, d)
                cls = states.classify_slice(*sums, weights, 1.0 / math.sqrt(prob), post._frame, post._form if shift else None)
            yield parity, prob, post, cls


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
    preparation is the default one.  A mask-route post-state defers its
    normalization check to its first ``.amps`` read (see ``OutcomeRecord``).
    """
    _check_register(state, config)
    value = _real_constant(state.amps)
    exact_ok = config.ancilla_prep is None and value is not None and value.real > 0
    records = []
    for m, (parity, prob, post, cls) in enumerate(_branches(state.amps, value, config, classify_states)):
        exact = _exact_parity_probability(config.n, config.d, config.coupling, parity) if exact_ok else None
        records.append(OutcomeRecord(m, parity, prob, exact, post, cls, post is None))
    total = sum(r.probability for r in records)
    if not abs(total - 1.0) <= _PROBABILITY_SUM_ATOL:
        raise _ProbabilitySumError(f"branch probabilities sum to {total}, not 1")
    return records


def outcome_distribution(state: Ket, n: int, d: int, coupling: CouplingKind = CouplingKind.PHASE) -> list[float]:
    """Heralding distribution p(j) = <state| P_j |state> as a weight histogram.

    p(j) sums |amplitude|^2 over the basis strings of weight j mod d, read
    in the computational basis (phase) or the Hadamard basis (shift).
    """
    _check_register(state, ModuleConfig(n, d, coupling))
    probs = _heralded(state.amps, n, d, coupling)[2]
    total = sum(probs)
    if not abs(total - 1.0) <= _PROBABILITY_SUM_ATOL:
        raise _ProbabilitySumError(f"projector probabilities sum to {total}, not 1")
    return probs
