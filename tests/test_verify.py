"""The check registry: every suite passes, and lookup, aggregation and
failure diagnostics work; each corruption of the projector views fails the
check that names it, and the laws stated on generators fail what the dense
2^n x 2^n products fail."""

import numpy as np
import pytest

from conftest import assert_checks
from qparity import verify
from qparity.linalg import Operator, hadamard, tensor
from qparity.module import CouplingKind, ProjectorSet, build_projectors, projector_dim
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


_VIEW = ProjectorSet.projectors.func
PROJECTOR_CHECKS = [c.name for c in suite_projectors(max_n=2)]
ORTHOGONAL, DUAL = PROJECTOR_CHECKS[1], PROJECTOR_CHECKS[4]


def dense_projector_laws(max_n):
    """Test-only oracle: the projector laws stated on the dense views by 2^n x 2^n
    products, O(d^2 8^n), under the check names of ``suite_projectors``."""
    herm, orth, comp, dims, dual = [], [], [], [], []
    for n in range(2, max_n + 1):
        hyp = tensor([hadamard()] * n).entries.real
        eye = np.eye(1 << n)
        for d in range(2, n + 1):
            real = {}
            for coupling in CouplingKind:
                pset = build_projectors(n, d, coupling)
                views = [p.entries for p in pset.projectors]
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
    """``suite`` (n <= ``max_n``) on views that ``edit(coupling, mats)`` has
    corrupted; returns {check name: failures}."""

    def corrupted(pset):
        mats = [p.entries.copy() for p in _VIEW(pset)]
        return tuple(Operator(m) for m in edit(pset.coupling, mats))

    monkeypatch.setattr(ProjectorSet, "projectors", property(corrupted))
    checks = suite(max_n=max_n)
    assert [c.name for c in checks] == PROJECTOR_CHECKS
    return {c.name: c.failures for c in checks}


def _failing(verdicts):
    return {name for name, failures in verdicts.items() if failures}


def _unchanged(coupling, mats):
    return mats


def _imaginary_shift_entry(coupling, mats):
    # Far below the law tolerance in size, but a view must be exactly real.
    if coupling is CouplingKind.SHIFT:
        mats[0] = mats[0] + 0j
        mats[0][0, 0] += 1e-9j
    return mats


def _scaled(coupling, mats):
    return [1.01 * m for m in mats]


def _phase_off_diagonal(coupling, mats):
    if coupling is CouplingKind.PHASE:
        mats[0][0, 1] = 0.5
    return mats


def _rotated_shift(coupling, mats):
    # A rotated set is still a complete set of orthogonal projectors.
    return mats[1:] + mats[:1] if coupling is CouplingKind.SHIFT else mats


def _swapped_shift_rows(coupling, mats):
    # Row 0, the generator, is kept; the view is no longer a function of x XOR y.
    if coupling is CouplingKind.SHIFT:
        mats[0][[1, 2]] = mats[0][[2, 1]]
    return mats


@pytest.mark.parametrize(
    "edit", [_unchanged, _imaginary_shift_entry, _scaled, _phase_off_diagonal, _rotated_shift, _swapped_shift_rows], ids=lambda edit: edit.__name__
)
def test_generator_laws_fail_what_dense_products_fail(monkeypatch, edit):
    generator = _failing(_projector_verdicts(monkeypatch, edit, max_n=5))
    assert generator == _failing(_projector_verdicts(monkeypatch, edit, max_n=5, suite=dense_projector_laws))


def test_tiny_off_diagonal_phase_entry_fails_only_the_generator_laws(monkeypatch):
    # 1e-17 moves no dense product beyond PROJECTOR_ATOL, but the view is not diagonal,
    # so the laws stated on its diagonal do not hold for it.
    def edit(coupling, mats):
        if coupling is CouplingKind.PHASE:
            mats[0][0, 1] = 1e-17
        return mats

    verdicts = _projector_verdicts(monkeypatch, edit, max_n=5)
    assert _failing(verdicts) == {ORTHOGONAL, DUAL}
    assert all("k=0,phase) not diagonal" in case for case in verdicts[ORTHOGONAL])
    assert all("k=0) phase view" in case for case in verdicts[DUAL])
    assert _failing(_projector_verdicts(monkeypatch, edit, max_n=5, suite=dense_projector_laws)) == set()


def test_projector_suite_passes_on_the_uncorrupted_view(monkeypatch):
    assert _failing(_projector_verdicts(monkeypatch, _unchanged)) == set()


def test_imaginary_part_on_a_shift_entry_fails_hermitian(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _imaginary_shift_entry)
    assert _failing(verdicts) == {"projectors hermitian"}
    assert all("shift" in case for case in verdicts["projectors hermitian"])


def test_scaled_views_fail_idempotence_completeness_and_ranks(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _scaled)
    assert _failing(verdicts) == {
        "projectors idempotent and mutually orthogonal",
        "projectors complete (sum to identity)",
        "projector ranks match binomial sums",
    }


def test_off_diagonal_entry_in_a_phase_view_fails(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _phase_off_diagonal)
    assert {
        "projectors hermitian",
        "projectors idempotent and mutually orthogonal",
        "shift projectors are Hadamard conjugates of phase projectors",
    } <= _failing(verdicts)
    assert all("phase" in case for case in verdicts["projectors hermitian"])


def test_shift_masks_rotated_by_one_class_fail_duality(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, _rotated_shift)
    assert _failing(verdicts) == {
        "projector ranks match binomial sums",
        "shift projectors are Hadamard conjugates of phase projectors",
    }
    dual = verdicts["shift projectors are Hadamard conjugates of phase projectors"]
    assert len(dual) == sum(d for n in range(2, 5) for d in range(2, n + 1))
