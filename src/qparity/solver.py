"""Which ancilla unitaries admit a state whose orbit is an orthonormal basis.

A diagonal drive D = diag(e^{i phi_0}, ..., e^{i phi_{d-1}}) applied
repeatedly to |phi> = sum_j a_j |j> yields orthonormal vectors
{D^i |phi>} iff sum_j |a_j|^2 lambda_j^i = delta_{0i}.  With d distinct
eigenvalues this forces the eigenvalues to be a common phase times the
d-th roots of unity and |a_j|^2 = 1/d; with s < d distinct eigenvalues
(s-th roots pattern) only s orbit vectors exist and each eigenspace must
carry total weight 1/s.  ``solve_amplitudes`` decides feasibility and
returns the magnitude data; ``reconstruct_general`` lifts the analysis to
an arbitrary unitary through its eigenbasis.  ``orbit_deviation``, the one orbit
test, reads an orbit off a drive's eigenvalues and never builds the drive.
``verify`` checks the verdict against an independent linear program over the
squared magnitudes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_ATOL, Ket, Operator

TWO_PI = 2.0 * math.pi
# Eigenphases closer than this are one eigenvalue: a computed spectrum carries
# ~1e-15 of rounding, and the distinct phases of a drive differ by far more.
_GROUP_TOL = 1e-9
# An orthonormal orbit's Gram matrix is I to ~1e-15 per power, but its diagonal is the
# seed's squared norm, which linalg.NORM_ATOL lets miss 1 by 2 * NORM_ATOL + NORM_ATOL^2.
ORBIT_ATOL = 1e-8
# A unitary is normal, so its Schur form is diagonal up to rounding; a failed one leaves far more.
_SCHUR_OFFDIAG_ATOL = 1e-8


@dataclass(frozen=True)
class EigenphaseSpec:
    """Multiset of eigenphases of a diagonal unitary, reduced mod 2*pi."""

    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) < 2:
            raise ValueError(f"need at least two eigenphases, got {len(self.phases)}")
        phases = tuple(float(p) for p in self.phases)
        if not all(math.isfinite(p) for p in phases):
            raise ValueError(f"eigenphases must be finite, got {phases}")
        object.__setattr__(self, "phases", tuple(p % TWO_PI for p in phases))

    @property
    def d(self) -> int:
        return len(self.phases)


def roots_of_unity_spec(d: int, offset: float = 0.0) -> EigenphaseSpec:
    """Spec with phases offset + 2*pi*j/d, the canonical feasible pattern."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    return EigenphaseSpec(tuple(offset + TWO_PI * j / d for j in range(d)))


@dataclass(frozen=True)
class DegeneracyStructure:
    """Clusters of (numerically) equal eigenphases, ascending by representative.

    ``groups`` holds the index sets into the original phase list, ordered the
    same way as ``multiplicities`` and ``representatives``.
    """

    s: int
    multiplicities: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    representatives: tuple[float, ...]


@dataclass(frozen=True)
class AmplitudeSolution:
    """Feasibility verdict plus the admissible magnitude data.

    For a feasible nondegenerate spec every squared amplitude is exactly
    1/d.  For a feasible degenerate spec ``squared_amps`` is one
    representative of the solution family (uniform within each eigenspace)
    and ``eigenspace_constraints`` lists every (index set, required weight
    sum) pair; any magnitude assignment meeting those sums is admissible.
    """

    feasible: bool
    structure: DegeneracyStructure
    squared_amps: tuple[float, ...] | None
    eigenspace_constraints: tuple[tuple[tuple[int, ...], float], ...]
    canonical_phase_offset: float


def orbit_deviation(eigenvalues: np.ndarray, phi: np.ndarray, orbit_len: int) -> float:
    """max |G - I| for the Gram matrix G of the orbit phi, U phi, ..., U^(orbit_len-1) phi,
    given U's eigenvalues and the seed's coordinates ``phi`` on its eigenvectors.  Row i of
    the orbit is lambda^i * phi, so G_ik = sum_j |phi_j|^2 lambda_j^(k-i) is Toeplitz and
    Hermitian and its first row holds every entry: O(orbit_len d) work in O(d) memory.
    G_00 - 1 is what the seed's squared norm misses, and a NaN coordinate gives NaN, which
    no tolerance admits.  Raises unless every eigenvalue has unit modulus within
    ``UNITARY_ATOL`` (NaN fails), phi has one coordinate per eigenvalue and 1 <= orbit_len <= d."""
    dev = float(np.abs(np.square(np.abs(eigenvalues)) - 1.0).max())
    if not dev <= UNITARY_ATOL:
        raise ValueError(f"operator is not unitary (deviation {dev:.3e})")
    if phi.shape != eigenvalues.shape:
        raise ValueError(f"{phi.size} coordinates for {eigenvalues.size} eigenvalues")
    if not 1 <= orbit_len <= eigenvalues.size:
        raise ValueError(f"orbit length {orbit_len} outside [1, {eigenvalues.size}]")
    row = np.empty(orbit_len, dtype=complex)
    v = phi
    for k in range(orbit_len):
        row[k] = np.vdot(phi, v)
        v = eigenvalues * v
    row[0] -= 1.0
    return float(np.abs(row).max())


def _circular_mean(values: np.ndarray) -> float:
    return cmath.phase(np.mean(np.exp(1j * values))) % TWO_PI


def classify_eigenphases(spec: EigenphaseSpec) -> DegeneracyStructure:
    """Cluster the eigenphases on the circle within 1e-9."""
    phases = np.array(spec.phases)
    order = sorted(range(spec.d), key=lambda j: phases[j])
    clusters: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if phases[idx] - phases[clusters[-1][-1]] <= _GROUP_TOL:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    if len(clusters) > 1:
        wrap_gap = phases[clusters[0][0]] + TWO_PI - phases[clusters[-1][-1]]
        if wrap_gap <= _GROUP_TOL:
            clusters[0] = clusters.pop() + clusters[0]
    reps = [_circular_mean(phases[np.array(c)]) for c in clusters]
    ranked = sorted(range(len(clusters)), key=lambda i: reps[i])
    groups = tuple(tuple(clusters[i]) for i in ranked)
    return DegeneracyStructure(
        s=len(clusters),
        multiplicities=tuple(len(g) for g in groups),
        groups=groups,
        representatives=tuple(reps[i] for i in ranked),
    )


def solve_amplitudes(spec: EigenphaseSpec) -> AmplitudeSolution:
    """Decide feasibility and return admissible squared magnitudes.

    Feasible iff the distinct eigenphases are, within 1e-9, a
    common offset plus the s-th roots of unity where s is the number of
    distinct values.  The offset reported is the representative phase of
    the cluster containing index 0.
    """
    structure = classify_eigenphases(spec)
    offset = next(
        rep for rep, grp in zip(structure.representatives, structure.groups) if 0 in grp
    )
    s = structure.s
    deltas = []
    for rep in structure.representatives:
        delta = (rep - offset) % TWO_PI
        if delta > TWO_PI - _GROUP_TOL:
            delta -= TWO_PI
        deltas.append(delta)
    deltas.sort()
    targets = [TWO_PI * m / s for m in range(s)]
    feasible = all(abs(dl - tg) <= _GROUP_TOL for dl, tg in zip(deltas, targets))
    squared = [0.0] * spec.d
    constraints = []
    for grp in structure.groups:
        share = 1.0 / (s * len(grp))
        for j in grp:
            squared[j] = share
        constraints.append((grp, 1.0 / s))
    return AmplitudeSolution(
        feasible=feasible,
        structure=structure,
        squared_amps=tuple(squared) if feasible else None,
        eigenspace_constraints=tuple(constraints) if feasible else (),
        canonical_phase_offset=offset,
    )


def admissible_state(spec: EigenphaseSpec, theta: tuple[float, ...] | list[float]) -> Ket:
    """Build sum_j d^(-1/2)-weighted e^{i theta_j} |j> for a feasible spec.

    The phases theta are free: they parametrize the commutant of the
    diagonal drive and never affect orthonormality of the orbit.
    """
    solution = solve_amplitudes(spec)
    if not solution.feasible:
        raise ValueError("spec is infeasible; no admissible state exists")
    if len(theta) != spec.d:
        raise ValueError(f"{len(theta)} phases for dimension {spec.d}")
    amps = np.sqrt(np.array(solution.squared_amps)) * np.exp(1j * np.array(list(theta)))
    return Ket(amps, (spec.d,), normalized=True)


def reconstruct_general(u: Operator) -> tuple[bool, Operator, EigenphaseSpec]:
    """Analyze an arbitrary unitary U = V D V* through its eigenbasis.

    Returns (feasible, V, spec) where the columns of V are orthonormal
    eigenvectors ordered by eigenphase relative to the first eigenvalue,
    and spec carries the matching eigenphases.  When feasible, V applied to
    any admissible state of the diagonal problem gives an orthonormal orbit
    under U itself.
    """
    import scipy.linalg  # deferred: scipy dominates `import qparity` otherwise

    if not u.unitary:
        u = Operator(u.entries, unitary=True)  # raises unless U is unitary
    t, z = scipy.linalg.schur(u.entries, output="complex")
    off = float(np.abs(t - np.diag(np.diag(t))).max())
    if not off <= _SCHUR_OFFDIAG_ATOL:
        raise ValueError(f"eigendecomposition failed; off-diagonal residue {off:.3e}")
    eigvals = np.diag(t)
    offset = cmath.phase(eigvals[0]) % TWO_PI
    keys = np.angle(eigvals * np.exp(-1j * offset)) % TWO_PI
    order = np.argsort(keys, kind="stable")
    vmat = z[:, order]
    spec = EigenphaseSpec(tuple(float(np.angle(ev) % TWO_PI) for ev in eigvals[order]))
    feasible = solve_amplitudes(spec).feasible
    return feasible, Operator(vmat, unitary=True), spec
