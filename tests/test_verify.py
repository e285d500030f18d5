"""The check registry: every suite passes, and lookup, aggregation and
failure diagnostics work; each corruption of the projector views fails the
check that names it."""

import pytest

from conftest import assert_checks
from qparity import verify
from qparity.linalg import Operator
from qparity.module import CouplingKind, ProjectorSet
from qparity.verify import SUITES, Check, run_suite, suite_projectors


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


def _projector_verdicts(monkeypatch, edit):
    """``suite_projectors`` (n <= 4) on views that ``edit(coupling, mats)`` has
    corrupted; returns {check name: failures}."""

    def corrupted(pset):
        mats = [p.entries.copy() for p in _VIEW(pset)]
        return tuple(Operator(m) for m in edit(pset.coupling, mats))

    monkeypatch.setattr(ProjectorSet, "projectors", property(corrupted))
    checks = suite_projectors(max_n=4)
    assert [c.name for c in checks] == PROJECTOR_CHECKS
    return {c.name: c.failures for c in checks}


def _failing(verdicts):
    return {name for name, failures in verdicts.items() if failures}


def test_projector_suite_passes_on_the_uncorrupted_view(monkeypatch):
    assert _failing(_projector_verdicts(monkeypatch, lambda coupling, mats: mats)) == set()


def test_imaginary_part_on_a_shift_entry_fails_hermitian(monkeypatch):
    # Far below the law tolerance in size, but a view must be exactly real.
    def edit(coupling, mats):
        if coupling is CouplingKind.SHIFT:
            mats[0] = mats[0] + 0j
            mats[0][0, 0] += 1e-9j
        return mats

    verdicts = _projector_verdicts(monkeypatch, edit)
    assert _failing(verdicts) == {"projectors hermitian"}
    assert all("shift" in case for case in verdicts["projectors hermitian"])


def test_scaled_views_fail_idempotence_completeness_and_ranks(monkeypatch):
    verdicts = _projector_verdicts(monkeypatch, lambda coupling, mats: [1.01 * m for m in mats])
    assert _failing(verdicts) == {
        "projectors idempotent and mutually orthogonal",
        "projectors complete (sum to identity)",
        "projector ranks match binomial sums",
    }


def test_off_diagonal_entry_in_a_phase_view_fails(monkeypatch):
    def edit(coupling, mats):
        if coupling is CouplingKind.PHASE:
            mats[0][0, 1] = 0.5
        return mats

    verdicts = _projector_verdicts(monkeypatch, edit)
    assert {
        "projectors hermitian",
        "projectors idempotent and mutually orthogonal",
        "shift projectors are Hadamard conjugates of phase projectors",
    } <= _failing(verdicts)
    assert all("phase" in case for case in verdicts["projectors hermitian"])


def test_shift_masks_rotated_by_one_class_fail_duality(monkeypatch):
    # A rotated set is still a complete set of orthogonal projectors.
    def edit(coupling, mats):
        return mats[1:] + mats[:1] if coupling is CouplingKind.SHIFT else mats

    verdicts = _projector_verdicts(monkeypatch, edit)
    assert _failing(verdicts) == {
        "projector ranks match binomial sums",
        "shift projectors are Hadamard conjugates of phase projectors",
    }
    dual = verdicts["shift projectors are Hadamard conjugates of phase projectors"]
    assert len(dual) == sum(d for n in range(2, 5) for d in range(2, n + 1))
