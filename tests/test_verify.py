"""The check registry: every suite passes, and lookup, aggregation and
failure diagnostics work; each corruption of the projector generators fails
the check that names it, and the laws stated on generators fail what the
dense 2^n x 2^n products of their views fail."""

import dataclasses

import numpy as np
import pytest

from conftest import assert_checks, generator_views
from qparity import states, verify
from qparity.linalg import hadamard, tensor
from qparity.module import CouplingKind, ProjectorSet, ResourceLimitError, build_projectors, projector_dim
from qparity.verify import (
    BRANCH_RATIOS,
    PROJECTOR_ATOL,
    SUITES,
    Check,
    gnk_branch_failures,
    run_suite,
    suite_examples,
    suite_probabilities,
    suite_projectors,
)


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


def classified(monkeypatch, relabel=lambda cls: cls):
    """The states handed to ``states.classify`` from now on; ``relabel`` edits each verdict."""
    calls = []
    classify = states.classify
    monkeypatch.setattr(states, "classify", lambda state: calls.append(state) or relabel(classify(state)))
    return calls


def test_probabilities_classify_only_the_two_w_branches(monkeypatch):
    calls = classified(monkeypatch)
    assert_checks(suite_probabilities())
    # Parities 1 and n - 1 of each run at n = 3 .. 12, and nothing at n = 2.
    assert len(calls) == 2 * (verify._PROBABILITIES_MAX_N - 2)


@pytest.mark.parametrize("n,k", [(5, 1), (8, 2), (9, 3), (10, 4)])
def test_gnk_check_classifies_one_branch_a_run(monkeypatch, n, k):
    calls = classified(monkeypatch)
    assert gnk_branch_failures(n, k) == []
    assert len(calls) == 1


def test_examples_classify_every_branch_only_where_every_branch_is_read(monkeypatch):
    calls = classified(monkeypatch)
    assert_checks(suite_examples())
    # Every branch of the closed-form and anchor runs; one branch of each G_n and G(n,k) run.
    anchors = [(3, 3), (4, 3), (5, 4)]
    every = sum(d for _, d in [*BRANCH_RATIOS, *anchors])
    gn, gnk = len(range(5, 10)), sum((n - 2) // 2 for n in range(5, 11))
    assert len(calls) == every + gn + gnk


def test_mislabelled_parity_one_branch_fails_the_w_probability(monkeypatch):
    # The W labels are read from classify itself, not from records classified in the run.
    def relabel(cls):
        if cls.family is states.Family.W and not cls.up_to_bitflip:
            return dataclasses.replace(cls, family=states.Family.OTHER)
        return cls

    classified(monkeypatch, relabel)
    checks = {c.name: c for c in suite_probabilities()}
    w_rate = checks["aggregated W probability is n*2^(1-n)"]
    assert not w_rate.passed
    assert w_rate.failures == [f"(n={n},k=1) is Other" for n in range(3, verify._PROBABILITIES_MAX_N + 1)]
    assert all(c.passed for name, c in checks.items() if c is not w_rate)
