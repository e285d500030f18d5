"""Shared fixtures and hypothesis configuration for the test suite."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def basis_ket(dims, index):
    """The normalized computational basis vector with flat (mixed-radix) ``index``."""
    from qparity.linalg import Ket

    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[index] = 1.0
    return Ket(amps, dims, normalized=True)


def random_ket_amps(rng, dim):
    """Haar-ish random normalized amplitude vector of length dim."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@dataclass(frozen=True, eq=False)
class OrbitReport:
    """An operator orbit as read-only rows, its Gram matrix and its distance from
    orthonormality; ``orthonormal`` means within ``ORBIT_ATOL`` (NaN is not)."""

    orbit: np.ndarray
    gram: np.ndarray
    max_deviation: float
    orthonormal: bool


def drive(spec):
    """Test-only dense form of an ``EigenphaseSpec``: the diagonal unitary
    diag(e^{i phi_0}, ..., e^{i phi_{d-1}}) as an Operator, for ``check_orbit``."""
    from qparity.linalg import Operator

    return Operator(np.diag(np.exp(1j * np.array(spec.phases))), unitary=True)


def generator_views(pset):
    """Test-only dense matrices of ``pset.generators`` with every imaginary part kept:
    diag(g_i) (phase) or g_i[x ^ y] (shift), and a zero for each class no weight reaches."""
    from qparity.module import CouplingKind

    index = np.arange(1 << pset.n)
    xor = index[:, None] ^ index
    views = [np.diag(g) if pset.coupling is CouplingKind.PHASE else g[xor] for g in pset.generators]
    return views + [np.zeros((1 << pset.n, 1 << pset.n))] * (pset.d - len(views))


def check_orbit(u, phi, orbit_len):
    """Test-only dense oracle for ``solver.orbit_deviation``: the rows phi, U phi, ...,
    U^(orbit_len-1) phi of the d x d operator U, and their d x d Gram matrix; raises
    unless U is unitary and phi a normalized vector of its dimension."""
    from qparity.linalg import Operator, require_normalized
    from qparity.solver import ORBIT_ATOL

    if not u.unitary:
        u = Operator(u.entries, unitary=True)  # raises unless U is unitary
    if phi.dim != u.dim:
        raise ValueError(f"dimension mismatch {phi.dim} != {u.dim}")
    if not 1 <= orbit_len <= u.dim:
        raise ValueError(f"orbit length {orbit_len} outside [1, {u.dim}]")
    require_normalized(phi, "orbit seed")
    m = u.entries
    orbit = np.empty((orbit_len, u.dim), dtype=complex)
    v = phi.amps
    for i in range(orbit_len):
        orbit[i] = v
        v = m @ v
    orbit.setflags(write=False)
    gram = orbit.conj() @ orbit.T
    max_dev = float(np.abs(gram - np.eye(orbit_len)).max())
    return OrbitReport(orbit=orbit, gram=gram, max_deviation=max_dev, orthonormal=max_dev <= ORBIT_ATOL)


@pytest.fixture(scope="session")
def suite_run():
    """Run each ``qparity verify`` suite at most once per session.

    Returns a function mapping a suite name to ``(checks, seconds)``, so the
    acceptance tests and the registry gate read the same run.
    """
    from qparity.verify import run_suite

    cache = {}

    def run(name):
        if name not in cache:
            t0 = time.perf_counter()
            checks = run_suite(name)
            cache[name] = (checks, time.perf_counter() - t0)
        return cache[name]

    return run


def assert_checks(checks, names=None):
    """Print one ``[PASS]``/``[FAIL] <check name>`` line per check, then assert.

    ``names`` picks checks by name (all of them when None); an unknown name
    is a KeyError, so a renamed check cannot drop out unnoticed.
    """
    if names is not None:
        by_name = {c.name: c for c in checks}
        checks = [by_name[name] for name in names]
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}"
              + ("" if check.passed else f": {check.detail()}"))
    assert checks, "no checks to assert"
    failed = [f"{c.name}: {c.detail()}" for c in checks if not c.passed]
    assert not failed, "; ".join(failed)
