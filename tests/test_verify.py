"""The check registry: every suite passes, and lookup, aggregation and
failure diagnostics work."""

import pytest

from conftest import assert_checks
from qparity import verify
from qparity.verify import SUITES, Check, run_suite


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
