"""Acceptance gate: every product-level requirement checked in one place.

The claims themselves live once, as the checks of ``qparity.verify.SUITES``
(the same checks ``qparity verify`` prints).  Tests 01-08 name, for each
requirement, the checks that state it; they read one shared run of each
suite (the ``suite_run`` fixture) and print one ``[PASS]``/``[FAIL] <check
name>`` line per check *before* they assert, so every verdict is visible in
captured output even when a case fails.  Tests 01, 02 and 07 also bound the
wall-clock time of the suite they read.  ``tests/test_verify.py`` asserts
every check of every suite.  The two tests after them compare the simulator
against independent routes.  Run ``pytest tests/test_acceptance.py -v -s``
to see every line as it happens.

The two-component family case (05b) is stated over its real domain by
``verify.gnk_branch_failures``: the parity-(k mod d) branch of a d = n - 2k
module on |+>^n is G(n,k) iff 3k < n; outside it, as at (n=9, k=3), the
branch's exact binomial content is asserted and no branch may reach G(n,k).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_checks
from qparity.cli import main as cli_main
from qparity.linalg import Ket, fidelity, plus_state
from qparity.module import CouplingKind, ModuleConfig, build_projectors, run_module
from qparity.verify import gnk_branch_failures


def report(tag: str, failures: list[str], detail: str) -> None:
    ok = not failures
    text = detail if ok else "; ".join(failures[:4]) + (
        f"; ... {len(failures) - 4} more" if len(failures) > 4 else ""
    )
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {text}")
    assert ok, f"{tag}: {text}"


def gate(suite_run, suite, names=None, seconds=None):
    """Assert the named checks of one suite and, if given, its time bound."""
    checks, elapsed = suite_run(suite)
    assert_checks(checks, names)
    assert seconds is None or elapsed < seconds, (
        f"suite {suite} took {elapsed:.2f}s, bound is {seconds}s"
    )


def test_01_three_qubit_qutrit_heralding(suite_run):
    # The 1/4, 3/8, 3/8 branch probabilities are the n = 3 per-outcome case.
    gate(suite_run, "examples", ["anchor branches classify as GHZ/W/Dicke"], seconds=1.0)
    gate(suite_run, "probabilities", ["per-outcome probabilities are binomial-sum rationals"])


def test_02_exact_outcome_probabilities(suite_run):
    gate(suite_run, "probabilities", [
        "per-outcome probabilities are binomial-sum rationals",
        "GHZ branch probability is 2^(1-n)",
        "aggregated W probability is n*2^(1-n)",
    ], seconds=5.0)


def test_03_gain_over_interference_baseline(suite_run):
    gate(suite_run, "probabilities", ["gain over the linear-optics baseline is at least 2^(n-2)"])


def test_04_branch_decompositions_for_three_module_sizes(suite_run):
    gate(suite_run, "examples", ["small-register branches match closed-form Dicke content"])


def test_05_wheel_branch_is_two_component_sum(suite_run):
    gate(suite_run, "examples", ["parity-1 branch at d=n-2 is G_n for n=5..9"])


@pytest.mark.parametrize("n,k", [(5, 1), (7, 1), (7, 2), (9, 2), (9, 3), (10, 3)])
def test_05_general_two_component_branches(n, k):
    side = "G(n,k) branch" if 3 * k < n else "exact content outside 3k < n"
    report(f"05b (n={n},k={k}) {side}", gnk_branch_failures(n, k), f"d={n - 2 * k}")


def test_06_two_component_expectation_values(suite_run):
    gate(suite_run, "gnk")


def test_07_projector_algebra_full_sweep(suite_run):
    gate(suite_run, "projectors", seconds=10.0)


def test_08_solver_battery(suite_run):
    gate(suite_run, "solver")


def test_09_sequential_and_projector_paths_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(987654321)
    failures = []
    checked = 0
    for n in range(1, 7):
        dim = 1 << n
        for d in range(2, 7):
            for coupling in CouplingKind:
                pset = build_projectors(n, d, coupling)
                mats = [p.entries for p in pset.projectors]
                config = ModuleConfig(n, d, coupling)
                for _ in range(200):
                    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    v /= np.linalg.norm(v)
                    state = Ket(v, (2,) * n, normalized=True)
                    records = run_module(state, config, classify_states=False)
                    for rec in records:
                        proj = mats[rec.parity] @ v
                        p = float(np.vdot(proj, proj).real)
                        if abs(p - rec.probability) > 1e-12:
                            failures.append(
                                f"(n={n},d={d},{coupling.value}) parity {rec.parity}: "
                                f"probabilities differ by {abs(p - rec.probability):.2e}"
                            )
                        if rec.post_state is not None:
                            ref = Ket(proj / math.sqrt(p), (2,) * n, normalized=True)
                            fid = fidelity(rec.post_state, ref)
                            if fid < 1 - 1e-10:
                                failures.append(
                                    f"(n={n},d={d},{coupling.value}) parity {rec.parity}: "
                                    f"fidelity {fid:.2e}"
                                )
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "09 sequential coupling equals projector application",
        failures,
        f"{checked} random runs across n<=6, d<=6, both couplings, in {elapsed:.1f}s",
    )


def test_10_half_filled_scaling_and_erratum_flag(capsys):
    failures = []
    rels = []
    for k in range(2, 9):
        n = 2 * k
        p = Fraction(math.comb(n, k), 1 << n)
        records = run_module(plus_state(n), ModuleConfig(n, n), classify_states=False)
        sim = next(r for r in records if r.parity == k)
        if sim.probability_exact != p:
            failures.append(f"k={k}: simulator probability {sim.probability_exact} != {p}")
        asym = 1.0 / math.sqrt(math.pi * k)
        rel = abs(float(p) - asym) / asym
        rels.append(rel)
        if rel >= 0.10:
            failures.append(f"k={k}: relative error {rel:.3f} not within 10%")
    if any(b >= a for a, b in zip(rels, rels[1:])):
        failures.append(f"relative errors not monotonically decreasing: {rels}")
    code = cli_main(["table", "--family", "halfdicke-scaling", "--max-n", "16", "--json"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"table command exited {code}")
    rows = {row["k"]: row for row in json.loads(out)["rows"]}
    for k in range(2, 9):
        row = rows[k]
        if row["self_dual"] is not True:
            failures.append(f"k={k}: table row missing the self-dual flag")
        pair = float(row["pair_form"])
        if abs(pair - 2.0 / math.sqrt(math.pi * k)) > 1e-9:
            failures.append(f"k={k}: pair-form column is {pair}")
    code = cli_main(["table", "--family", "halfdicke-scaling", "--max-n", "16"])
    text = capsys.readouterr().out
    if code != 0 or "double-counts" not in text:
        failures.append("text table does not flag the double-counting aggregate form")
    report(
        "10 half-filled branch scaling and aggregate-form flag",
        failures,
        f"C(2k,k)/4^k within 10% of 1/sqrt(pi k) for k=2..8, errors decreasing, "
        f"tables display the self-dual double-count warning",
    )
