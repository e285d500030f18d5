"""The check registry: every suite passes, and lookup, aggregation and
failure diagnostics work; each corruption of the projector generators fails
the check that names it, and the laws stated on generators fail what the
dense 2^n x 2^n products of their views fail."""

import numpy as np
import pytest

from conftest import assert_checks, generator_views
from qparity import verify
from qparity.linalg import hadamard, tensor
from qparity.module import CouplingKind, ProjectorSet, ResourceLimitError, build_projectors, projector_dim
from qparity.verify import PROJECTOR_ATOL, SUITES, Check, run_suite, suite_projectors


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name, suite_run):
    checks, _ = suite_run(name)
    assert len({c.name for c in checks}) == len(checks), f"suite {name} repeats a check name"
    assert_checks(checks)


def test_all_aggregates_every_suite(monkeypatch):
    stubs = {
        "first": lambda: [Check("a", True)],
        "second": lambda: [Check("b", True), Check("c", False, ["why"])],
    }
    monkeypatch.setattr(verify, "SUITES", stubs)
    assert [c.name for c in run_suite("all")] == ["a", "b", "c"]


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_failed_check_details():
    check = Check(name="demo", passed=False, failures=["first", "second"])
    assert "first" in check.detail()


_GENERATORS = ProjectorSet.generators.func
PROJECTOR_CHECKS = [c.name for c in suite_projectors(max_n=2)]
HERMITIAN, ORTHOGONAL, COMPLETE, RANKS, DUAL = PROJECTOR_CHECKS


def dense_projector_laws(max_n):
    """Test-only oracle: the projector laws stated on the dense views of the generators by
    2^n x 2^n products with the Kronecker product of n Hadamards, O(d^2 8^n), under the
    check names of ``suite_projectors``."""
    herm, orth, comp, dims, dual = [], [], [], [], []
    for n in range(2, max_n + 1):
        hyp = tensor([hadamard()] * n).entries.real
        eye = np.eye(1 << n)
        for d in range(2, n + 1):
            real = {}
            for coupling in CouplingKind:
                pset = build_projectors(n, d, coupling)
                views = generator_views(pset)
                mats = real[coupling] = [v.real for v in views]
                for i in range(d):
                    if views[i].imag.any() or not np.abs(mats[i].T - mats[i]).max() <= PROJECTOR_ATOL:
                        herm.append(f"(n={n},d={d},k={i},{coupling.value})")
                    for j in range(i, d):
                        want = mats[i] if i == j else 0
                        if not np.abs(mats[i] @ mats[j] - want).max() <= PROJECTOR_ATOL:
                            orth.append(f"(n={n},d={d},k={i},{j},{coupling.value})")
                    rank = projector_dim(i, n, d)
                    if pset.dims[i] != rank or not abs(np.trace(mats[i]) - rank) <= PROJECTOR_ATOL:
                        dims.append(f"(n={n},d={d},k={i},{coupling.value})")
                if not np.abs(sum(mats) - eye).max() <= PROJECTOR_ATOL:
                    comp.append(f"(n={n},d={d},{coupling.value})")
                if sum(pset.dims) != 1 << n:
                    dims.append(f"(n={n},d={d},{coupling.value}) total")
            for i in range(d):
                conj = hyp @ real[CouplingKind.PHASE][i] @ hyp
                if not np.abs(conj - real[CouplingKind.SHIFT][i]).max() <= PROJECTOR_ATOL:
                    dual.append(f"(n={n},d={d},k={i})")
    return [Check(name, not failures, failures) for name, failures in zip(PROJECTOR_CHECKS, (herm, orth, comp, dims, dual))]


def _projector_verdicts(monkeypatch, edit, max_n=4, suite=suite_projectors):
    """``suite`` (n <= ``max_n``) on generators that ``edit(coupling, gens)`` has
    corrupted; returns {check name: failures}."""

    def corrupted(pset):
        return edit(pset.coupling, _GENERATORS(pset).copy())

    monkeypatch.setattr(ProjectorSet, "generators", property(corrupted))
    checks = suite(max_n=max_n)
    assert [c.name for c in checks] == PROJECTOR_CHECKS
    return {c.name: c.failures for c in checks}


def _failing(verdicts):
    return {name for name, failures in verdicts.items() if failures}


def _unchanged(coupling, gens):
    return gens


def _imaginary_shift_entry(coupling, gens):
    # Far below the law tolerance in size, but a generator must be exactly real.
    if coupling is CouplingKind.SHIFT:
        gens[0, 0] += 1e-9j
    return gens


def _scaled(coupling, gens):
    return 1.01 * gens


def _rotated_shift(coupling, gens):
    # A rotated set is still a complete set of orthogonal projectors.
    return np.roll(gens, -1, axis=0) if coupling is CouplingKind.SHIFT else gens


@pytest.mark.parametrize("edit", [_unchanged, _imaginary_shift_entry, _scaled, _rotated_shift], ids=lambda edit: edit.__name__)
def test_generator_laws_fail_what_dense_products_fail(monkeypatch, edit):
    generator = _failing(_projector_verdicts(monkeypatch, edit, max_n=5))
    assert generator == _failing(_projector_verdicts(monkeypatch, edit, max_n=5, suite=dense_projector_laws))


def test_projector_suite_passes_on_the_uncorrupted_generators(monkeypatch):
    assert _failing(_projector_verdicts(monkeypatch, _unchanged)) == set()


def test_imaginary_part_on_a_shift_entry_fails_hermitian(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _imaginary_shift_entry)
    assert _failing(verdicts) == {HERMITIAN}
    assert all("k=0,shift" in case for case in verdicts[HERMITIAN])


def test_scaled_generators_fail_idempotence_completeness_and_ranks(monkeypatch):
    assert _failing(_projector_verdicts(monkeypatch, _scaled)) == {ORTHOGONAL, COMPLETE, RANKS}


def test_shift_generators_rotated_by_one_class_fail_duality(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _rotated_shift)
    assert _failing(verdicts) == {RANKS, DUAL}
    assert len(verdicts[DUAL]) == sum(d for n in range(2, 5) for d in range(2, n + 1))


def test_suite_reads_no_dense_view(monkeypatch):
    monkeypatch.setattr(ProjectorSet, "projectors", property(lambda pset: pytest.fail("read a dense view")))
    assert _failing({c.name: c.failures for c in suite_projectors(max_n=6)}) == set()


def test_sign_matrix_is_refused_by_its_bytes(monkeypatch):
    # A 2^n x 2^n float64 matrix is 8 * 4^n bytes, a (2n - 1)-qubit statevector: under a
    # 9-qubit cap n = 5 fits and n = 6 does not.
    monkeypatch.setenv("QPARITY_MAX_QUBITS", "9")
    assert _failing({c.name: c.failures for c in suite_projectors(max_n=5)}) == set()
    with pytest.raises(ResourceLimitError, match=r"limited to 8192 bytes \(9 qubits\); the 64 x 64 sign matrix needs 32768 bytes$"):
        suite_projectors(max_n=6)


def test_sign_matrix_has_the_signs_of_the_hadamard_product():
    for n in range(1, 7):
        assert np.array_equal(verify._sign_matrix(n), np.sign(tensor([hadamard()] * n).entries.real))
