"""Dense linear algebra over small labelled tensor-product Hilbert spaces.

States are flat complex amplitude vectors tagged with the dimension of each
tensor factor (leftmost factor = most significant mixed-radix digit).
Operators are dense square matrices.  Everything is immutable after
construction, so values can be shared freely between threads or processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# A built unit vector's ``squared_norm`` is 1 to ~(_NORM_ROW + 1) 2^-53 = 2.9e-14 at any size.
NORMALIZED_ATOL = 1e-12
# U^dagger U of a unitary built in float64 is I to ~1e-15 per entry; a non-unitary misses by far more.
UNITARY_ATOL = 1e-10
# A caller's normalized state has norm 1 to ~1e-15 of rounding; an unnormalized one misses by far more.
NORM_ATOL = 1e-10
_NORM_ROW, _NORM_SHORT = 1 << 8, 1 << 12


def squared_norm(a: np.ndarray) -> float:
    """sum |a|^2 of a 1-D contiguous float64 or complex128 array, with no BLAS call to move its bits:
    pairwise up to ``_NORM_SHORT`` floats, and beyond in ``np.einsum`` rows of ``_NORM_ROW`` that ``math.fsum`` adds."""
    x = a.view(np.float64)
    if x.size <= _NORM_SHORT:
        return float(np.add.reduce(x * x))
    rows = x[: x.size - x.size % _NORM_ROW].reshape(-1, _NORM_ROW)
    return math.fsum([*np.einsum("ij,ij->i", rows, rows).tolist(), squared_norm(x[rows.size :])])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Ket:
    """Amplitude vector over an ordered tensor product of finite factors.

    ``normalized=True`` asserts unit norm; the assertion is checked at
    construction time and a violation raises ``ValueError``.
    """

    amps: np.ndarray
    factor_dims: tuple[int, ...]
    normalized: bool = False

    def __post_init__(self) -> None:
        self._own(np.array(self.amps, dtype=complex).reshape(-1))

    @classmethod
    def _adopt(cls, amps: np.ndarray, factor_dims: tuple[int, ...]) -> Ket:
        """A normalized Ket that takes ``amps``, a flat complex array the library has
        just built and keeps no other reference to, without copying it.

        The norm is checked as ``Ket(amps, factor_dims, normalized=True)`` checks it,
        and ``amps`` is then frozen in place.  Public construction always copies.
        """
        ket = cls.__new__(cls)
        object.__setattr__(ket, "factor_dims", factor_dims)
        object.__setattr__(ket, "normalized", True)
        ket._own(amps)
        return ket

    def _own(self, amps: np.ndarray) -> None:
        """Check ``amps`` against the factors and the normalized flag, then freeze and keep it."""
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        if amps.size != math.prod(dims):
            raise ValueError(f"{amps.size} amplitudes do not fill factors {dims}")
        if self.normalized:
            err = abs(squared_norm(amps) - 1.0)
            if not err <= NORMALIZED_ATOL:
                raise ValueError(f"squared norm deviates from 1 by {err:.3e}")
        object.__setattr__(self, "amps", _freeze(amps))
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix with an optional unitary guarantee.

    A real matrix is stored as float64, any other as complex128.
    ``unitary=True`` makes the constructor verify U^dagger U = I within
    ``UNITARY_ATOL`` (NaN fails), the one unitarity test: an Operator flagged
    unitary is never tested again.  ``solver.orbit_deviation`` states the same
    test on a drive's eigenvalues, max | |lambda_j|^2 - 1 |, and builds no Operator.
    """

    entries: np.ndarray
    unitary: bool = False

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if self.unitary:
            dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
            if not dev <= UNITARY_ATOL:
                raise ValueError(f"operator is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def require_normalized(state: Ket, what: str) -> None:
    """Raise unless ``what`` has norm 1 within ``NORM_ATOL`` (NaN fails); a Ket
    flagged normalized passed the tighter ``NORMALIZED_ATOL`` when built."""
    if state.normalized:
        return
    norm = math.sqrt(squared_norm(state.amps))
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"{what} must be normalized, norm is {norm:.12f}")


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2*pi*i/d)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return complex(np.exp(2j * np.pi / d))


def pauli_x(d: int) -> Operator:
    """Cyclic shift X|j> = |j+1 mod d> on a d-level system."""
    if d < 2:
        raise ValueError(f"shift operator needs dimension >= 2, got {d}")
    return Operator(np.roll(np.eye(d, dtype=complex), 1, axis=0), unitary=True)


def pauli_z(d: int) -> Operator:
    """Clock operator diag(1, w, ..., w^(d-1)) with w = exp(2*pi*i/d)."""
    if d < 2:
        raise ValueError(f"clock operator needs dimension >= 2, got {d}")
    return Operator(np.diag(omega(d) ** np.arange(d)), unitary=True)


def hadamard() -> Operator:
    return Operator(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), unitary=True)


def fourier_ket(d: int, k: int) -> Ket:
    """k-th discrete Fourier vector |u_k> = d^(-1/2) sum_j w^(-kj) |j>.

    With this sign convention X|u_k> = w^k |u_k> and Z|u_k> = |u_{k-1 mod d}>.
    """
    if d < 2:
        raise ValueError(f"Fourier basis needs dimension >= 2, got {d}")
    if not 0 <= k < d:
        raise IndexError(f"Fourier index {k} outside [0, {d})")
    j = np.arange(d)
    return Ket(omega(d) ** (-k * j) / math.sqrt(d), (d,), normalized=True)


def plus_state(n: int) -> Ket:
    """|+>^n, the uniform superposition over all n-bit strings."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    return Ket._adopt(np.full(1 << n, 2.0 ** (-n / 2), dtype=complex), (2,) * n)


def tensor(factors: Sequence[Ket] | Sequence[Operator]) -> Ket | Operator:
    """Kronecker product of kets (or of operators), leftmost factor first."""
    if not factors:
        raise ValueError("tensor of an empty sequence is undefined")
    if isinstance(factors[0], Ket):
        if not all(isinstance(f, Ket) for f in factors):
            raise ValueError("cannot mix kets and operators in one tensor product")
        amps = factors[0].amps
        dims: tuple[int, ...] = factors[0].factor_dims
        for f in factors[1:]:
            amps = np.kron(amps, f.amps)
            dims = dims + f.factor_dims
        return Ket(amps, dims, normalized=all(f.normalized for f in factors))
    if not all(isinstance(f, Operator) for f in factors):
        raise ValueError("cannot mix kets and operators in one tensor product")
    m = factors[0].entries
    for f in factors[1:]:
        m = np.kron(m, f.entries)
    return Operator(m, unitary=all(f.unitary for f in factors))


def inner(a: Ket, b: Ket) -> complex:
    """Hermitian inner product <a|b> (conjugate-linear in the first slot)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: Ket, b: Ket) -> float:
    """|<a|b>|^2; meaningful when both states are normalized."""
    return abs(inner(a, b)) ** 2


@lru_cache(maxsize=32)
def hamming_weights(n: int) -> np.ndarray:
    """Read-only uint8 vector of bit counts for all integers in [0, 2^n), built once per n."""
    if n < 0:
        raise ValueError(f"qubit count must be nonnegative, got {n}")
    return _freeze(np.bitwise_count(np.arange(1 << n)))


@lru_cache(maxsize=64)
def weight_classes(n: int, d: int) -> np.ndarray:
    """Read-only uint8 vector of wt(x) mod d for every x in [0, 2^n), built once per (n, d):
    a weight is at most n, so for d > n it is its own class, and otherwise d fits the
    uint8 operand."""
    wts = hamming_weights(n)
    return wts if d > n else _freeze(wts % d)


@lru_cache(maxsize=32)
def weight_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The integers in [0, 2^n) sorted stably by bit count, and where each count starts.

    Weight class k is ``order[starts[k]:starts[k + 1]]`` in ascending order, so
    ``amps[order][starts[k]:starts[k + 1]]`` holds the same elements in the same
    order as ``amps[hamming_weights(n) == k]``.  Both arrays are read-only.
    """
    wts = hamming_weights(n)
    order = np.argsort(wts, kind="stable")
    starts = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(wts, minlength=n + 1), out=starts[1:])
    return _freeze(order), _freeze(starts)
