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
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, Mapping

import numpy as np

from .linalg import Ket, hamming_weights, squared_norm, weight_order

FIDELITY_THRESHOLD = 1.0 - 1e-10
# Dicke overlaps of a state with no weight-k content are rounding noise, ~1e-16 each.
_COEFF_CUTOFF = 1e-12
# The global phase is read off the first amplitude above rounding noise, so noise never sets it.
_PHASE_LEAD_FLOOR = 1e-12
# The phase lead is searched, and the kept Dicke combination subtracted, block by block:
# a lead near the front costs one short pass, and neither forms a temporary of register size.
_BLOCK = 1 << 12
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
    nrm = math.sqrt(squared_norm(amps))
    if nrm < _ZERO_NORM:
        raise ValueError("coefficients sum to the zero vector")
    return Ket(amps / nrm, (2,) * n, normalized=True)


def _phase_lead(a: np.ndarray) -> complex:
    """The first entry of ``a`` above ``_PHASE_LEAD_FLOOR`` in magnitude, searched in blocks of
    ``_BLOCK`` so that no |a| of register size is formed; a zero vector raises ValueError."""
    for first in range(0, a.size, _BLOCK):
        block = a[first : first + _BLOCK]
        above = np.abs(block) > _PHASE_LEAD_FLOOR
        if above.any():
            return block[np.argmax(above)]
    raise ValueError("cannot fix the phase of a (numerically) zero vector")


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
    lead = _phase_lead(amps)
    rotated = amps * (lead.conjugate() / abs(lead))
    order, starts = weight_order(n)
    coeffs: dict[int, float] = {}
    kept = np.zeros(n + 1)
    overlaps = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        scale = math.sqrt(math.comb(n, k))
        # One class at a time, gathered in weight order: the largest holds C(n, n/2)
        # amplitudes, not a second register.
        total = np.sum(rotated[order[starts[k] : starts[k + 1]]])
        overlaps[k] = total / scale
        c = float(np.real(total) / scale)
        if abs(c) >= _COEFF_CUTOFF:
            coeffs[k] = c
            kept[k] = c / scale
    wts = hamming_weights(n)
    for first in range(0, rotated.size, _BLOCK):
        # take gathers by uint8 faster than indexing
        rotated[first : first + _BLOCK] -= np.take(kept, wts[first : first + _BLOCK])
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
    raw /= math.sqrt(squared_norm(raw))
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


def _gram_split(m: np.ndarray) -> np.ndarray | None:
    """One greedy rank-1 split of the 2 x m matrix ``m`` with rows r0, r1: u^dagger m, or None.

    The Gram matrix G = M M^dagger, G[i, j] = <r_j|r_i>, has the squared singular
    values s0^2 >= s1^2 of M as eigenvalues, so three inner products decide the
    split: it fails when s1 > _PRODUCT_SPLIT_ATOL.  Otherwise u is G's top
    eigenvector, the split-off qubit's factor.
    """
    a = np.vdot(m[0], m[0]).real
    c = np.vdot(m[1], m[1]).real
    b = complex(np.vdot(m[0], m[1]))  # G[1, 0]
    half = (a - c) / 2
    rad = math.hypot(half, abs(b))
    if math.sqrt(max((a + c) / 2 - rad, 0.0)) > _PRODUCT_SPLIT_ATOL:
        return None
    # (G - s0^2) u = 0, solved from the row that has no cancellation.
    u = np.array([half + rad, b] if half >= 0 else [b.conjugate(), rad - half])
    nrm = np.linalg.norm(u)
    # u is 0 only when G is a multiple of the identity; then (1, 0) is a top eigenvector.
    u = u / nrm if nrm > 0 else np.array([1.0 + 0j, 0.0])
    return u.conj() @ m


def _product_factorization(amps: np.ndarray) -> float:
    """Greedy rank-1 splitting of the 2^n amplitudes ``amps``, one qubit at a time; the
    product's fidelity, or 0.0.

    Each split reads the remainder as a 2 x m matrix M and replaces it by
    ``_gram_split``'s u^dagger M.  The product is u_1 ... u_(n-1) f with f the
    normalized final remainder, and <u_1 ... u_(n-1) f|state> = ||remainder||,
    so its fidelity is the remainder's squared norm.
    """
    rem = amps
    for _ in range(amps.size.bit_length() - 2):
        rem = _gram_split(rem.reshape(2, -1))
        if rem is None:
            return 0.0
    return float(np.vdot(rem, rem).real)


def _symmetric_product_factorization(c: np.ndarray) -> float:
    """``_product_factorization`` of the symmetric state sum_k c_k D(m, k), on its Dicke
    coefficients.  D(m, k) = sqrt((m-k)/m) |0> D(m-1, k) + sqrt(k/m) |1> D(m-1, k-1), so the
    rows r0 and r1 of a split are c_k sqrt((m-k)/m) and c_(k+1) sqrt((k+1)/m) on D(m-1, k);
    the remainder u^dagger M is again symmetric, and each split costs O(m)."""
    for m in range(c.size - 1, 1, -1):
        k = np.arange(m)
        c = _gram_split(np.array([c[:-1] * np.sqrt((m - k) / m), c[1:] * np.sqrt((k + 1) / m)]))
        if c is None:
            return 0.0
    return float(np.vdot(c, c).real)


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


def _classified(dec: DickeDecomposition, product_fidelity: Callable[[], float]) -> ClassificationResult:
    """The family ladder: named families from ``dec.overlaps``, then a Product when
    ``product_fidelity()`` reaches the threshold, then a Dicke sum by ``dec.residual``."""
    n, overlaps = dec.n, dec.overlaps
    flipped = overlaps[::-1]
    for family, k, weights, try_flip in _named_families(n):
        f = abs(complex(overlaps[weights].sum())) ** 2 / len(weights)
        if f >= FIDELITY_THRESHOLD:
            return ClassificationResult(family, n, k, False, f, dec)
        if try_flip:
            f = abs(complex(flipped[weights].sum())) ** 2 / len(weights)
            if f >= FIDELITY_THRESHOLD:
                return ClassificationResult(family, n, k, True, f, dec)
    f = product_fidelity()
    if f >= FIDELITY_THRESHOLD:
        return ClassificationResult(Family.PRODUCT, n, None, False, f, dec)
    if dec.residual < _DICKE_RESIDUAL_ATOL:
        return ClassificationResult(Family.DICKE_SUM, n, None, False, 1.0 - dec.residual**2, dec)
    return ClassificationResult(Family.OTHER, n, None, False, 0.0, dec)


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
    return _classified(dicke_decompose(state), lambda: _product_factorization(state.amps))


def _overlap_decomposition(overlaps: np.ndarray, lead: complex, spread: float = 0.0) -> DickeDecomposition:
    """The decomposition of a state from its n + 1 Dicke overlaps, its phase lead and
    ``spread``, the squared norm of its part off the symmetric subspace: the overlaps are
    rotated by the lead's phase, the coefficients are their real parts at least 1e-12 in
    magnitude, and the residual is the norm of what they miss, imaginary parts and the
    non-symmetric part included."""
    rotated = overlaps * (lead.conjugate() / abs(lead))
    kept = np.where(np.abs(rotated.real) >= _COEFF_CUTOFF, rotated.real, 0.0)
    coeffs = {k: float(c) for k, c in enumerate(kept) if c != 0}
    residual = math.sqrt(spread + squared_norm(rotated - kept))
    rotated.setflags(write=False)
    return DickeDecomposition(n=overlaps.size - 1, coeffs=coeffs, residual=residual, overlaps=rotated)


def classify_symmetric(n: int, overlaps: np.ndarray) -> ClassificationResult:
    """``classify`` of a normalized permutation-symmetric n-qubit state, read from its
    n + 1 overlaps <D(n, k)|state> alone, in O(n^2) work.

    The caller guarantees that the state is symmetric: nothing here can see a
    non-symmetric part, so the residual counts only what the kept coefficients
    miss inside the symmetric subspace.  The phase is fixed where ``classify``
    fixes it, on the overlap o_k of the lowest weight k whose per-string amplitude
    |o_k| / sqrt(C(n, k)) is above 1e-12.  The coefficients are the real parts of
    the rotated overlaps at least 1e-12 in magnitude, and the residual is the norm
    of what they miss, imaginary parts included.  The family ladder is
    ``classify``'s, and the product split runs on Dicke coefficients.
    """
    overlaps = np.array(overlaps, dtype=complex)
    # A weight-k string has amplitude o_k / sqrt(C(n, k)), and 2^k - 1, the first index of
    # weight k, precedes every index of a higher weight: classify's lead is at the lowest
    # weight whose strings are above the floor.
    strings = np.abs(overlaps) / np.sqrt([math.comb(n, k) for k in range(n + 1)])
    dec = _overlap_decomposition(overlaps, _phase_lead(np.where(strings > _PHASE_LEAD_FLOOR, overlaps, 0)))
    return _classified(dec, lambda: _symmetric_product_factorization(dec.overlaps))


@lru_cache(maxsize=32)
def _krawtchouk_means(n: int) -> np.ndarray:
    """R[j, k] = K_k(j) / C(n, k), each rounded once from the exact rational, read-only, with
    the Krawtchouk values K_k(j) = sum_i (-1)^i C(j, i) C(n - j, k - i) in exact integers.

    H^(x)n commutes with qubit permutations, so it maps the symmetric subspace to itself:
    <D(n, j)|H^(x)n|D(n, k)> = 2^(-n/2) sqrt(C(n, j) / C(n, k)) K_k(j).  So a state whose
    weight-k amplitudes sum to t_k has overlap 2^(-n/2) sqrt(C(n, j)) sum_k R[j, k] t_k with
    D(n, j) after the transform; R[0] is all ones.
    """
    kraw = [[sum((-1) ** i * math.comb(j, i) * math.comb(n - j, k - i) for i in range(k + 1)) for k in range(n + 1)] for j in range(n + 1)]
    r = np.array([[float(Fraction(kraw[j][k], math.comb(n, k))) for k in range(n + 1)] for j in range(n + 1)])
    r.setflags(write=False)
    return r


def weight_sums(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each weight k of the 2^n amplitudes ``b``: the sum of its weight-k run, and the
    squared norm of that run less its mean, the run's part off D(n, k).

    Each run is its slice of b in ``weight_order``, gathered one weight at a time, so
    the largest temporary holds C(n, n/2) amplitudes.
    """
    n = b.size.bit_length() - 1
    order, starts = weight_order(n)
    totals = np.empty(n + 1, dtype=complex)
    spreads = np.empty(n + 1)
    for k in range(n + 1):
        run = b[order[starts[k] : starts[k + 1]]]
        totals[k] = run.sum()
        run -= totals[k] / run.size
        spreads[k] = squared_norm(run)
    return totals, spreads


def classify_slice(
    totals: np.ndarray,
    spreads: np.ndarray,
    weights: range,
    scale: float,
    frame: Callable[[], np.ndarray],
    formed: Callable[[], np.ndarray] | None = None,
) -> ClassificationResult:
    """``classify`` of a heralded mask branch, read from its class's slice of b.

    The branch is y = ``scale`` b on the weights ``weights`` and 0 elsewhere, and
    ``totals`` and ``spreads`` are ``weight_sums(b)``.  The post-state is y itself
    (phase coupling, ``formed`` None) or H^(x)n y (shift coupling).
    - Its overlaps: y's overlap with D(n, k) is scale totals[k] / sqrt(C(n, k)).  The
      overlap of H^(x)n y with D(n, j) is 2^(-n/2) sqrt(C(n, j)) scale times the
      ``_krawtchouk_means`` row j dotted with the totals, summed by ``math.fsum`` and
      scaled last: where the totals are exact, as for W_16, a small coefficient keeps
      the relative bits that its integer weight ratio needs.
    - Its residual: the part off the symmetric subspace has squared norm
      scale^2 sum(spreads[weights]), which H^(x)n, unitary and permutation-invariant,
      keeps; the rest is what the kept coefficients miss.
    - Its phase lead: its first amplitude is its D(n, 0) overlap.  When that is at most
      the floor, the lead is read as ``dicke_decompose`` reads it, from ``frame()``, the
      2^n amplitudes of y, or from ``formed()``, the 2^n amplitudes of H^(x)n y.
    - Its product test: ``_product_factorization`` of y, formed by ``frame()`` at most
      once.  H^(x)n is a product of one-qubit unitaries, so it keeps the product fidelity.
    The family ladder is ``classify``'s.
    """
    n = totals.size - 1
    ks = list(weights)
    if formed is None:
        overlaps = np.zeros(n + 1, dtype=complex)
        overlaps[ks] = totals[ks] * scale / np.sqrt([math.comb(n, k) for k in ks])
    else:
        r, t = _krawtchouk_means(n)[:, ks], totals[ks]
        sums = [complex(math.fsum(row * t.real), math.fsum(row * t.imag)) for row in r]
        overlaps = np.array(sums) * scale * np.sqrt([math.comb(n, j) for j in range(n + 1)]) * 2.0 ** (-n / 2)
    masked = cache(frame)
    lead = overlaps[0] if abs(overlaps[0]) > _PHASE_LEAD_FLOOR else _phase_lead(masked() if formed is None else formed())
    dec = _overlap_decomposition(overlaps, lead, math.fsum(spreads[ks]) * scale * scale)
    return _classified(dec, lambda: _product_factorization(masked()))


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
