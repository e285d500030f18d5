"""Reference entangled-state families and diagnostics for qubit registers.

Covers Dicke states D(n, k), GHZ, W, the symmetric two-component sums
G_n and G(n, k) = (D(n, k) + D(n, n-k))/sqrt(2), decomposition of a state
in the Dicke basis, family classification, and all-qubit X/Y expectation
values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .linalg import Ket, hamming_weights, weight_order

FIDELITY_THRESHOLD = 1.0 - 1e-10
# Dicke overlaps of a state with no weight-k content are rounding noise, ~1e-16 each.
_COEFF_CUTOFF = 1e-12
# The global phase is read off the first amplitude above rounding noise, so noise never sets it.
_PHASE_LEAD_FLOOR = 1e-12
# A Dicke sum reconstructs its state up to rounding, ~1e-15; any other state misses by far more.
_DICKE_RESIDUAL_ATOL = 1e-10
# A split is rank 1 when its second singular value is below this; a product's is rounding, ~1e-8.
_PRODUCT_SPLIT_ATOL = 3e-6
# Squared Dicke coefficients carry ~1e-15 relative rounding; a non-integer ratio misses by far more.
_RATIO_ATOL = 1e-6
# Any nonzero coefficient gives a norm far above this; only an exact cancellation falls below.
_ZERO_NORM = 1e-300


class Family(Enum):
    GHZ = "GHZ"
    W = "W"
    DICKE = "Dicke"
    G = "G"
    G_GENERAL = "G_general"
    DICKE_SUM = "DickeSum"
    PRODUCT = "Product"
    OTHER = "Other"


@dataclass(frozen=True)
class ClassificationResult:
    """Best matching family for a state, possibly after flipping every qubit.

    ``decomposition`` is the state's Dicke decomposition, the record that
    ``classify`` reads every named-family fidelity from, so callers need not
    repeat it; ``classify`` always sets it.
    """

    family: Family
    n: int
    k: int | None
    up_to_bitflip: bool
    fidelity: float
    decomposition: DickeDecomposition | None = field(default=None, compare=False, repr=False)

    def label(self) -> str:
        if self.family is Family.DICKE:
            return f"Dicke({self.n},{self.k})"
        if self.family is Family.G:
            return f"G_{self.n}"
        if self.family is Family.G_GENERAL:
            return f"G({self.n},{self.k})"
        return self.family.value


@dataclass(frozen=True)
class DickeDecomposition:
    """Real coefficients of a state on the Dicke basis plus a residual norm.

    For a normalized input, sum(c_k^2) + residual^2 == 1 up to rounding.
    ``overlaps`` holds the n+1 complex overlaps <D(n,k)|state> after the
    global phase fix, read-only; ``coeffs`` keeps the real parts of those
    at least 1e-12 in magnitude.
    """

    n: int
    coeffs: dict[int, float]
    residual: float
    overlaps: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class ExpectationReport:
    """All-qubit X and Y expectation values (real parts; both operators are
    Hermitian, so any imaginary content is rounding noise and is reported)."""

    x_all: float
    y_all: float
    max_imag: float


def _require_qubits(state: Ket) -> int:
    if any(d != 2 for d in state.factor_dims):
        raise ValueError(f"expected a register of qubits, got factors {state.factor_dims}")
    return len(state.factor_dims)


def dicke(n: int, k: int) -> Ket:
    """Equal superposition of the C(n, k) basis strings with exactly k ones."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} outside [0, {n}]")
    wts = hamming_weights(n)
    amps = np.where(wts == k, 1.0 + 0j, 0.0)
    return Ket(amps / math.sqrt(math.comb(n, k)), (2,) * n, normalized=True)


def ghz(n: int) -> Ket:
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return Ket(amps, (2,) * n, normalized=True)


def w(n: int) -> Ket:
    """Single-excitation Dicke state (|10..0> + |01..0> + ... )/sqrt(n)."""
    if n < 2:
        raise ValueError(f"W needs at least 2 qubits, got {n}")
    return dicke(n, 1)


def g_general(n: int, k: int) -> Ket:
    """(D(n,k) + D(n,n-k))/sqrt(2) for n != 2k, and D(n,k) itself for n == 2k."""
    if n < 2:
        raise ValueError(f"G(n,k) needs at least 2 qubits, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} outside [0, {n}]")
    if n == 2 * k:
        return dicke(n, k)
    a = dicke(n, k)
    b = dicke(n, n - k)
    return Ket((a.amps + b.amps) / math.sqrt(2), (2,) * n, normalized=True)


def g(n: int) -> Ket:
    """(W_n + X^n W_n)/sqrt(2); reduces to D(2,1) for n == 2."""
    return g_general(n, 1)


def bitflip_all(state: Ket) -> Ket:
    """Apply X to every qubit (amplitude at x moves to the complement of x)."""
    _require_qubits(state)
    return Ket(state.amps[::-1].copy(), state.factor_dims, normalized=state.normalized)


def dicke_sum(n: int, coeffs: Mapping[int, float | complex]) -> Ket:
    """Normalized sum of Dicke states sum_k c_k D(n, k)."""
    if not coeffs:
        raise ValueError("need at least one Dicke coefficient")
    amps = np.zeros(1 << n, dtype=complex)
    wts = hamming_weights(n)
    for k, c in coeffs.items():
        if not 0 <= k <= n:
            raise ValueError(f"excitation count {k} outside [0, {n}]")
        amps[wts == k] += c / math.sqrt(math.comb(n, k))
    nrm = np.linalg.norm(amps)
    if nrm < _ZERO_NORM:
        raise ValueError("coefficients sum to the zero vector")
    return Ket(amps / nrm, (2,) * n, normalized=True)


def dicke_decompose(state: Ket) -> DickeDecomposition:
    """Project a normalized state onto the Dicke basis.

    The global phase is fixed first: the first amplitude above 1e-12 in
    magnitude is rotated to the positive real axis (a zero vector raises
    ValueError).  Each class sum runs over the class's slice of the rotated
    amplitudes in weight order, each coefficient is the real part of its
    overlap, coefficients below 1e-12 in magnitude are dropped, and the
    residual is the norm of what the kept real-coefficient combination
    misses (including any imaginary parts).
    """
    n = _require_qubits(state)
    amps = state.amps
    lead = amps[np.argmax(np.abs(amps) > _PHASE_LEAD_FLOOR)]
    if not abs(lead) > _PHASE_LEAD_FLOOR:
        raise ValueError("cannot fix the phase of a (numerically) zero vector")
    rotated = amps * (lead.conjugate() / abs(lead))
    order, starts = weight_order(n)
    # Each class is a contiguous slice of the amplitudes in weight order.
    by_weight = rotated[order]
    coeffs: dict[int, float] = {}
    kept = np.zeros(n + 1)
    overlaps = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        scale = math.sqrt(math.comb(n, k))
        total = np.sum(by_weight[starts[k] : starts[k + 1]])
        overlaps[k] = total / scale
        c = float(np.real(total) / scale)
        if abs(c) >= _COEFF_CUTOFF:
            coeffs[k] = c
            kept[k] = c / scale
    del by_weight
    rotated -= np.take(kept, hamming_weights(n))  # take gathers by uint8 faster than indexing
    residual = float(np.linalg.norm(rotated))
    overlaps.setflags(write=False)
    return DickeDecomposition(n=n, coeffs=coeffs, residual=residual, overlaps=overlaps)


def predicted_branch(n: int, d: int, k: int) -> DickeDecomposition:
    """Closed-form Dicke content of the parity-k branch heralded on |+>^n.

    Weights congruent to k mod d contribute with coefficient proportional to
    sqrt(C(n, weight)).
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if d < 2:
        raise ValueError(f"ancilla dimension must be >= 2, got {d}")
    if not 0 <= k < d:
        raise ValueError(f"parity {k} outside [0, {d})")
    ks = list(range(k, n + 1, d))
    if not ks:
        raise ValueError(f"no weights in [0, {n}] are congruent to {k} mod {d}")
    raw = np.sqrt([math.comb(n, j) for j in ks])
    raw /= np.linalg.norm(raw)
    overlaps = np.zeros(n + 1, dtype=complex)
    overlaps[ks] = raw
    overlaps.setflags(write=False)
    return DickeDecomposition(
        n=n, coeffs={j: float(c) for j, c in zip(ks, raw)}, residual=0.0, overlaps=overlaps
    )


def squared_weight_ratios(dec: DickeDecomposition) -> dict[int, int] | None:
    """Integer ratios of squared coefficients (e.g. {0: 1, 3: 10}), when exact.

    Returns None if the squared coefficients are not close to an integer
    ratio with smallest entry 1.
    """
    if not dec.coeffs:
        return None
    sq = {k: c * c for k, c in dec.coeffs.items()}
    base = min(sq.values())
    if base <= 0:
        return None
    out: dict[int, int] = {}
    for k, v in sorted(sq.items()):
        ratio = v / base
        nearest = round(ratio)
        if nearest < 1 or abs(ratio - nearest) > _RATIO_ATOL:
            return None
        out[k] = int(nearest)
    return out


def _product_factorization(state: Ket) -> float:
    """Greedy rank-1 splitting, one qubit at a time; the product's fidelity, or 0.0.

    Each split reads the remainder as a 2 x m matrix M with rows r0, r1.  Its
    Gram matrix G = M M^dagger, G[i, j] = <r_j|r_i>, has the squared singular
    values s0^2 >= s1^2 of M as eigenvalues, so three inner products decide
    the split: it fails when s1 > _PRODUCT_SPLIT_ATOL.  Otherwise the qubit's
    factor is G's top eigenvector u and the next remainder is u^dagger M.
    The product is u_1 ... u_(n-1) f with f the normalized final remainder,
    and <u_1 ... u_(n-1) f|state> = ||remainder||, so its fidelity is the
    remainder's squared norm.
    """
    rem = state.amps
    for _ in range(len(state.factor_dims) - 1):
        m = rem.reshape(2, -1)
        a = np.vdot(m[0], m[0]).real
        c = np.vdot(m[1], m[1]).real
        b = complex(np.vdot(m[0], m[1]))  # G[1, 0]
        half = (a - c) / 2
        rad = math.hypot(half, abs(b))
        if math.sqrt(max((a + c) / 2 - rad, 0.0)) > _PRODUCT_SPLIT_ATOL:
            return 0.0
        # (G - s0^2) u = 0, solved from the row that has no cancellation.
        u = np.array([half + rad, b] if half >= 0 else [b.conjugate(), rad - half])
        nrm = np.linalg.norm(u)
        # u is 0 only when G is a multiple of the identity; then (1, 0) is a top eigenvector.
        u = u / nrm if nrm > 0 else np.array([1.0 + 0j, 0.0])
        rem = u.conj() @ m
    return float(np.vdot(rem, rem).real)


def _named_families(n: int):
    # Every named family is an equal-weight sum of the Dicke states listed
    # here, so its fidelity is |sum of those overlaps|^2 / count.  The flip
    # flag marks families whose all-qubit-flipped twin is not already in the
    # list (W flips onto D(n, n-1); every Dicke, GHZ and G reference either
    # is flip-symmetric or has its twin listed).
    if n >= 2:
        yield Family.GHZ, None, [0, n], False
        yield Family.W, 1, [1], True
    for k in range(n + 1):
        yield Family.DICKE, k, [k], False
    if n >= 3:
        yield Family.G, 1, [1, n - 1], False
    for k in range(2, (n - 1) // 2 + 1):
        yield Family.G_GENERAL, k, [k, n - k], False


def classify(state: Ket) -> ClassificationResult:
    """Identify a normalized qubit-register state.

    Everything is read off the state's Dicke decomposition (``dicke_decompose``,
    returned as ``decomposition``) and, when no named family matches, one
    product split.  Named families are tried most-specific-first with
    fidelity threshold 1 - 1e-10; the single-excitation family is also
    matched up to flipping every qubit.  All named families lie in the
    symmetric subspace, so these fidelities come from the n+1 Dicke overlaps
    (flipping every qubit reverses them; the global phase does not enter).
    Failing that, the state is a Product when it splits off one qubit at a
    time: each split reads the remaining amplitudes once, in three inner
    products that form the split's 2x2 Gram matrix, and fails when its
    smaller eigenvalue puts the second singular value above 3e-6 (an
    entangled state fails at its first entangled split); the product's
    fidelity, the squared norm of the last remainder, must then reach the
    threshold.  Next comes a generic Dicke-basis combination (residual below
    1e-10), otherwise Other.
    """
    n = _require_qubits(state)
    dec = dicke_decompose(state)
    overlaps = dec.overlaps
    flipped = overlaps[::-1]
    for family, k, weights, try_flip in _named_families(n):
        f = abs(complex(overlaps[weights].sum())) ** 2 / len(weights)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(family, n, k, False, f, dec)
        if try_flip:
            f = abs(complex(flipped[weights].sum())) ** 2 / len(weights)
            if f >= FIDELITY_THRESHOLD:
                return ClassificationResult(family, n, k, True, f, dec)
    f = _product_factorization(state)
    if f >= FIDELITY_THRESHOLD:
        return ClassificationResult(Family.PRODUCT, n, None, False, f, dec)
    if dec.residual < _DICKE_RESIDUAL_ATOL:
        return ClassificationResult(Family.DICKE_SUM, n, None, False, 1.0 - dec.residual**2, dec)
    return ClassificationResult(Family.OTHER, n, None, False, 0.0, dec)


def expectations(state: Ket) -> ExpectationReport:
    """Expectation values of X tensored over all qubits and Y likewise.

    Uses X^n |x> = |~x> and Y^n |x> = i^n (-1)^(weight of x) |~x>, so no
    2^n x 2^n operator is ever materialized.
    """
    n = _require_qubits(state)
    a = state.amps
    rev = a[::-1]
    signs = (-1.0) ** hamming_weights(n)
    x_val = complex(np.vdot(a, rev))
    y_val = (1j**n) * ((-1) ** n) * complex(np.vdot(a, signs * rev))
    return ExpectationReport(
        x_all=x_val.real,
        y_all=y_val.real,
        max_imag=max(abs(x_val.imag), abs(y_val.imag)),
    )
