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

from .linalg import (
    Ket,
    canonical_phase,
    fidelity,
    hamming_weights,
    weight_order,
)

FIDELITY_THRESHOLD = 1.0 - 1e-10
_COEFF_CUTOFF = 1e-12


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

    ``decomposition`` is the Dicke decomposition that ``classify`` computed on
    its way to DickeSum or Other, so callers need not repeat it; it is None
    when a named family or a product state matched first.
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
    """

    n: int
    coeffs: dict[int, float]
    residual: float


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
    if nrm < 1e-300:
        raise ValueError("coefficients sum to the zero vector")
    return Ket(amps / nrm, (2,) * n, normalized=True)


def dicke_decompose(state: Ket, tol: float = _COEFF_CUTOFF) -> DickeDecomposition:
    """Project a normalized state onto the Dicke basis.

    The global phase is fixed with canonical_phase first, each overlap is
    clipped to its real part, coefficients below ``tol`` in magnitude are
    dropped, and the residual is the norm of what the kept real-coefficient
    combination misses (including any imaginary parts).
    """
    n = _require_qubits(state)
    vc = canonical_phase(state)
    order, starts = weight_order(n)
    # Each class is a contiguous slice of the amplitudes in weight order.
    by_weight = vc.amps[order]
    coeffs: dict[int, float] = {}
    kept = np.zeros(n + 1)
    for k in range(n + 1):
        scale = math.sqrt(math.comb(n, k))
        c = float(np.real(np.sum(by_weight[starts[k] : starts[k + 1]])) / scale)
        if abs(c) >= tol:
            coeffs[k] = c
            kept[k] = c / scale
    del by_weight
    residual = float(np.linalg.norm(vc.amps - kept[hamming_weights(n)]))
    return DickeDecomposition(n=n, coeffs=coeffs, residual=residual)


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
    return DickeDecomposition(n=n, coeffs={j: float(c) for j, c in zip(ks, raw)}, residual=0.0)


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
        if nearest < 1 or abs(ratio - nearest) > 1e-6:
            return None
        out[k] = int(nearest)
    return out


def _product_factorization(state: Ket) -> Ket | None:
    """Greedy rank-1 splitting; returns the product state or None."""
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


def _dicke_overlaps(state: Ket) -> np.ndarray:
    """Complex overlaps c_k = <D(n,k)|state> for k = 0..n, in one weight pass."""
    n = len(state.factor_dims)
    wts = hamming_weights(n)
    re = np.bincount(wts, weights=state.amps.real, minlength=n + 1)
    im = np.bincount(wts, weights=state.amps.imag, minlength=n + 1)
    scale = np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])
    return (re + 1j * im) / scale


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


def classify(state: Ket, tol: float = 1e-10) -> ClassificationResult:
    """Identify a normalized qubit-register state.

    Named families are tried most-specific-first with fidelity threshold
    1 - 1e-10; the single-excitation family is also matched up to flipping
    every qubit.  All named families lie in the symmetric subspace, so these
    fidelities are read off the n+1 Dicke overlaps of the state (flipping
    every qubit reverses them).  Failing that, the state may be a product
    state, then a generic Dicke-basis combination (residual below ``tol``),
    otherwise Other.
    """
    n = _require_qubits(state)
    overlaps = _dicke_overlaps(state)
    flipped = overlaps[::-1]
    for family, k, weights, try_flip in _named_families(n):
        f = abs(complex(overlaps[weights].sum())) ** 2 / len(weights)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(family, n, k, False, f)
        if try_flip:
            f = abs(complex(flipped[weights].sum())) ** 2 / len(weights)
            if f >= FIDELITY_THRESHOLD:
                return ClassificationResult(family, n, k, True, f)
    product = _product_factorization(state)
    if product is not None:
        f = fidelity(state, product)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(Family.PRODUCT, n, None, False, f)
    dec = dicke_decompose(state)
    if dec.residual < tol:
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
