"""Which ancilla unitaries admit a state whose orbit is an orthonormal basis.

A diagonal drive D = diag(e^{i phi_0}, ..., e^{i phi_{d-1}}) applied
repeatedly to |phi> = sum_j a_j |j> yields orthonormal vectors
{D^i |phi>} iff sum_j |a_j|^2 lambda_j^i = delta_{0i}.  With d distinct
eigenvalues this forces the eigenvalues to be a common phase times the
d-th roots of unity and |a_j|^2 = 1/d; with s < d distinct eigenvalues
(s-th roots pattern) only s orbit vectors exist and each eigenspace must
carry total weight 1/s.  ``solve_amplitudes`` decides feasibility and
returns the magnitude data; ``reconstruct_general`` lifts the analysis to
an arbitrary unitary through its eigenbasis.

``brute_force_min_deviation`` is an independent check: a grid search over
the magnitude simplex (the orbit Gram matrix depends on magnitudes only)
refined by a local constrained minimization.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, Operator, UNITARY_ATOL

TWO_PI = 2.0 * math.pi
# Eigenphases closer than this are one eigenvalue: a computed spectrum carries
# ~1e-15 of rounding, and the distinct phases of a drive differ by far more.
_GROUP_TOL = 1e-9
# An orthonormal orbit's Gram matrix is the identity up to rounding, ~1e-15 per power.
_ORBIT_ATOL = 1e-10
# A normalized seed's norm is 1 up to rounding, ~1e-15; an unnormalized one misses by far more.
_SEED_NORM_ATOL = 1e-10
# A unitary is normal, so its Schur form is diagonal up to rounding; a failed one leaves far more.
_SCHUR_OFFDIAG_ATOL = 1e-8
# SLSQP stops once the squared deviation improves by less than this, far below the verdict's scale.
_REFINE_FTOL = 1e-18
# The refined grid deviation of a feasible spec is rounding (<1e-10 on verify's
# battery); an infeasible spec's stays above 1e-2.
_GRID_FEASIBLE_ATOL = 1e-3


@dataclass(frozen=True)
class EigenphaseSpec:
    """Multiset of eigenphases of a diagonal unitary, reduced mod 2*pi."""

    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) < 2:
            raise ValueError(f"need at least two eigenphases, got {len(self.phases)}")
        reduced = tuple(float(p) % TWO_PI for p in self.phases)
        object.__setattr__(self, "phases", reduced)

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


@dataclass(frozen=True, eq=False)
class OrbitReport:
    """Gram matrix of an operator orbit and its distance from orthonormality."""

    gram: np.ndarray
    max_deviation: float
    orthonormal: bool


def check_orbit(u: Operator, phi: Ket, orbit_len: int, tol: float = _ORBIT_ATOL) -> OrbitReport:
    """Gram matrix of {phi, U phi, ..., U^(orbit_len-1) phi}."""
    m = u.entries
    dev = float(np.abs(m.conj().T @ m - np.eye(u.dim)).max())
    if dev > UNITARY_ATOL:
        raise ValueError(f"operator is not unitary (deviation {dev:.3e})")
    if phi.dim != u.dim:
        raise ValueError(f"dimension mismatch {phi.dim} != {u.dim}")
    if not 1 <= orbit_len <= u.dim:
        raise ValueError(f"orbit length {orbit_len} outside [1, {u.dim}]")
    if abs(phi.norm() - 1.0) > _SEED_NORM_ATOL:
        raise ValueError("orbit seed must be normalized")
    vecs = np.empty((orbit_len, u.dim), dtype=complex)
    v = np.array(phi.amps)
    for i in range(orbit_len):
        vecs[i] = v
        v = m @ v
    gram = vecs.conj() @ vecs.T
    max_dev = float(np.abs(gram - np.eye(orbit_len)).max())
    return OrbitReport(gram=gram, max_deviation=max_dev, orthonormal=max_dev <= tol)


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
    if not feasible:
        return AmplitudeSolution(
            feasible=False,
            structure=structure,
            squared_amps=None,
            eigenspace_constraints=(),
            canonical_phase_offset=offset,
        )
    squared = [0.0] * spec.d
    constraints = []
    for grp in structure.groups:
        share = 1.0 / (s * len(grp))
        for j in grp:
            squared[j] = share
        constraints.append((grp, 1.0 / s))
    return AmplitudeSolution(
        feasible=True,
        structure=structure,
        squared_amps=tuple(squared),
        eigenspace_constraints=tuple(constraints),
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

    m = u.entries
    dev = float(np.abs(m.conj().T @ m - np.eye(u.dim)).max())
    if dev > UNITARY_ATOL:
        raise ValueError(f"operator is not unitary (deviation {dev:.3e})")
    t, z = scipy.linalg.schur(m, output="complex")
    off = float(np.abs(t - np.diag(np.diag(t))).max())
    if off > _SCHUR_OFFDIAG_ATOL:
        raise ValueError(f"eigendecomposition failed; off-diagonal residue {off:.3e}")
    eigvals = np.diag(t)
    offset = cmath.phase(eigvals[0]) % TWO_PI
    keys = np.angle(eigvals * np.exp(-1j * offset)) % TWO_PI
    order = np.argsort(keys, kind="stable")
    vmat = z[:, order]
    spec = EigenphaseSpec(tuple(float(np.angle(ev) % TWO_PI) for ev in eigvals[order]))
    feasible = solve_amplitudes(spec).feasible
    return feasible, Operator(vmat, unitary=True), spec


def _simplex_grid(total: int, parts: int, chunk: int = 200_000):
    """Yield arrays of nonnegative integer compositions of ``total``."""
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    combos = itertools.combinations(range(total + parts - 1), parts - 1)
    while True:
        batch = list(itertools.islice(combos, chunk))
        if not batch:
            return
        bars = np.array(batch, dtype=np.int64)
        padded = np.concatenate(
            (
                np.full((bars.shape[0], 1), -1, dtype=np.int64),
                bars,
                np.full((bars.shape[0], 1), total + parts - 1, dtype=np.int64),
            ),
            axis=1,
        )
        yield np.diff(padded, axis=1) - 1


def brute_force_min_deviation(spec: EigenphaseSpec, grid: float = 0.02) -> tuple[float, np.ndarray]:
    """Smallest orbit-Gram deviation reachable over the magnitude simplex.

    The Gram matrix of {D^i phi} depends only on the squared magnitudes
    q_j = |a_j|^2, so the search runs over the simplex sum(q) = 1 on a grid
    of the given resolution and polishes the best point with a constrained
    least-squares minimization.  The orbit length is the number of distinct
    eigenvalues; deviations are taken over Gram rows 1 .. orbit_len-1.
    """
    import scipy.optimize  # deferred: scipy dominates `import qparity` otherwise

    d = spec.d
    orbit_len = classify_eigenphases(spec).s
    if orbit_len <= 1:
        return 0.0, np.full(d, 1.0 / d)
    lam = np.exp(1j * np.array(spec.phases))
    powers = np.array([lam**m for m in range(1, orbit_len)]).T  # (d, orbit_len-1)
    steps = round(1.0 / grid)
    best_dev = math.inf
    best_q = np.full(d, 1.0 / d)
    for counts in _simplex_grid(steps, d):
        q = counts.astype(float) / steps
        devs = np.abs(q @ powers).max(axis=1)
        idx = int(np.argmin(devs))
        if devs[idx] < best_dev:
            best_dev = float(devs[idx])
            best_q = q[idx]

    def objective(q: np.ndarray) -> float:
        return float(np.sum(np.abs(q @ powers) ** 2))

    result = scipy.optimize.minimize(
        objective,
        best_q,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * d,
        constraints=[{"type": "eq", "fun": lambda q: float(np.sum(q)) - 1.0}],
        options={"ftol": _REFINE_FTOL, "maxiter": 500},
    )
    if result.success:
        q = np.clip(result.x, 0.0, None)
        q = q / q.sum()
        dev = float(np.abs(q @ powers).max())
        if dev < best_dev:
            best_dev = dev
            best_q = q
    return best_dev, best_q


def brute_force_feasible(spec: EigenphaseSpec, grid: float = 0.02) -> bool:
    """Grid-search verdict used as an independent oracle for solve_amplitudes."""
    dev, _ = brute_force_min_deviation(spec, grid=grid)
    return dev < _GRID_FEASIBLE_ATOL
