"""Named self-check suites exposed through the command line.

Each suite returns a list of Check results; a suite passes iff every check
does.  Failures carry the offending (n, d, parity) combinations so a
regression is directly actionable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import solver, states
from .linalg import PROJECTOR_ATOL, Operator, hadamard, plus_state, tensor
from .module import (
    CouplingKind,
    ModuleConfig,
    build_projectors,
    projector_dim,
    run_module,
)
from .states import FIDELITY_THRESHOLD


@dataclass
class Check:
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)

    def detail(self, limit: int = 6) -> str:
        listed = "; ".join(self.failures[:limit])
        if len(self.failures) > limit:
            listed += f"; ... {len(self.failures) - limit} more"
        return listed


def _check(name: str, failures: list[str]) -> Check:
    return Check(name=name, passed=not failures, failures=failures)


def suite_projectors(max_n: int = 8) -> list[Check]:
    herm: list[str] = []
    idem: list[str] = []
    comp: list[str] = []
    dims: list[str] = []
    dual: list[str] = []
    for n in range(2, max_n + 1):
        hyp = tensor([hadamard()] * n).entries
        for d in range(2, n + 1):
            sets = {c: build_projectors(n, d, c) for c in CouplingKind}
            for coupling, pset in sets.items():
                eye = np.eye(1 << n)
                total = np.zeros((1 << n, 1 << n), dtype=complex)
                for i, p in enumerate(pset.projectors):
                    m = p.entries
                    if np.abs(m.conj().T - m).max() > PROJECTOR_ATOL:
                        herm.append(f"(n={n},d={d},k={i},{coupling.value})")
                    total += m
                    for j, q in enumerate(pset.projectors):
                        ref = m if i == j else 0.0
                        if np.abs(m @ q.entries - ref).max() > PROJECTOR_ATOL:
                            idem.append(f"(n={n},d={d},k={i},{j},{coupling.value})")
                if np.abs(total - eye).max() > PROJECTOR_ATOL:
                    comp.append(f"(n={n},d={d},{coupling.value})")
                for i, p in enumerate(pset.projectors):
                    if pset.dims[i] != projector_dim(i, n, d):
                        dims.append(f"(n={n},d={d},k={i},{coupling.value})")
                if sum(pset.dims) != 1 << n:
                    dims.append(f"(n={n},d={d},{coupling.value}) total")
            for i in range(d):
                conj = hyp @ sets[CouplingKind.PHASE].projectors[i].entries @ hyp
                if np.abs(conj - sets[CouplingKind.SHIFT].projectors[i].entries).max() > PROJECTOR_ATOL:
                    dual.append(f"(n={n},d={d},k={i})")
    return [
        _check("projectors hermitian", herm),
        _check("projectors idempotent and mutually orthogonal", idem),
        _check("projectors complete (sum to identity)", comp),
        _check("projector ranks match binomial sums", dims),
        _check("shift projectors are Hadamard conjugates of phase projectors", dual),
    ]


def _branch_failures(n: int, d: int) -> list[str]:
    bad: list[str] = []
    records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
    for rec in records:
        if rec.zero_probability:
            continue
        dec = states.dicke_decompose(rec.post_state)
        pred = states.predicted_branch(n, d, rec.parity)
        if set(dec.coeffs) != set(pred.coeffs):
            bad.append(f"(n={n},d={d},k={rec.parity}) weights {sorted(dec.coeffs)}")
            continue
        err = max(abs(dec.coeffs[k] - pred.coeffs[k]) for k in pred.coeffs)
        if err > 1e-10 or dec.residual > 1e-12:
            bad.append(f"(n={n},d={d},k={rec.parity}) err={err:.2e} res={dec.residual:.2e}")
    return bad


def suite_examples() -> list[Check]:
    checks = []
    decomp: list[str] = []
    for n, d in [(4, 3), (5, 3), (5, 4)]:
        decomp += _branch_failures(n, d)
    checks.append(_check("small-register branches match closed-form Dicke content", decomp))

    labels: list[str] = []
    expected = {
        (3, 3): {0: "GHZ", 1: "W", 2: "W"},
        (4, 3): {2: "Dicke(4,2)"},
        (5, 4): {2: "Dicke(5,2)", 3: "Dicke(5,3)"},
    }
    for (n, d), want in expected.items():
        records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
        for rec in records:
            if rec.parity in want and rec.classification.label() != want[rec.parity]:
                labels.append(
                    f"(n={n},d={d},k={rec.parity}) got {rec.classification.label()}"
                )
    checks.append(_check("anchor branches classify as GHZ/W/Dicke", labels))

    gn: list[str] = []
    for n in range(5, 10):
        records = run_module(plus_state(n), ModuleConfig(n=n, d=n - 2))
        rec = next(r for r in records if r.parity == 1)
        cls = rec.classification
        if cls.family is not states.Family.G or cls.fidelity < FIDELITY_THRESHOLD:
            gn.append(f"(n={n},d={n - 2}) got {cls.label()}")
    checks.append(_check("parity-1 branch at d=n-2 is G_n for n=5..9", gn))

    gnk: list[str] = []
    for n in range(5, 10):
        for k in range(1, (n - 1) // 3 + 1):
            d = n - 2 * k
            if d < 2 or k >= d:
                continue
            records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
            rec = next(r for r in records if r.parity == k)
            cls = rec.classification
            want = states.Family.G if k == 1 else states.Family.G_GENERAL
            if cls.family is not want or cls.k != k or cls.fidelity < FIDELITY_THRESHOLD:
                gnk.append(f"(n={n},d={d},k={k}) got {cls.label()}")
    checks.append(_check("parity-k branch at d=n-2k is G(n,k) whenever k < d", gnk))
    return checks


def suite_probabilities(max_n: int = 12) -> list[Check]:
    per_outcome: list[str] = []
    ghz_rate: list[str] = []
    w_rate: list[str] = []
    gain: list[str] = []
    for n in range(2, max_n + 1):
        records = run_module(plus_state(n), ModuleConfig(n=n, d=n), classify_states=False)
        by_parity = {r.parity: r for r in records}
        for r in records:
            want = Fraction(
                sum(math.comb(n, j) for j in range(r.parity, n + 1, n)), 1 << n
            )
            if r.probability_exact != want or abs(r.probability - want) > 1e-12:
                per_outcome.append(f"(n={n},k={r.parity})")
        if by_parity[0].probability_exact != Fraction(1, 1 << (n - 1)):
            ghz_rate.append(f"(n={n})")
        if n >= 3:
            agg = by_parity[1].probability_exact + by_parity[n - 1].probability_exact
            if agg != Fraction(n, 1 << (n - 1)):
                w_rate.append(f"(n={n})")
            baseline = (
                Fraction(n, 1 << (2 * n - 2)) if n % 2 else Fraction(n, 1 << (2 * n - 3))
            )
            if agg / baseline < Fraction(1 << (n - 2)):
                gain.append(f"(n={n})")
    return [
        _check("per-outcome probabilities are binomial-sum rationals", per_outcome),
        _check("GHZ branch probability is 2^(1-n)", ghz_rate),
        _check("aggregated W probability is n*2^(1-n)", w_rate),
        _check("gain over the linear-optics baseline is at least 2^(n-2)", gain),
    ]


def suite_gnk(max_n: int = 10) -> list[Check]:
    bad_x: list[str] = []
    bad_y: list[str] = []
    bad_self: list[str] = []
    for n in range(2, max_n + 1):
        for k in range(n + 1):
            if n == 2 * k:
                continue
            rep = states.expectations(states.g_general(n, k))
            if abs(rep.x_all - 1.0) > 1e-10 or rep.max_imag > 1e-10:
                bad_x.append(f"(n={n},k={k})")
            want_y = 0.0 if n % 2 else (-1.0) ** (n // 2 + k)
            if abs(rep.y_all - want_y) > 1e-10:
                bad_y.append(f"(n={n},k={k})")
    for k in range(1, 6):
        rep = states.expectations(states.g_general(2 * k, k))
        if abs(rep.y_all - 1.0) > 1e-10 or abs(rep.x_all - 1.0) > 1e-10:
            bad_self.append(f"(k={k})")
    return [
        _check("all-qubit X expectation is 1 on G(n,k), n != 2k", bad_x),
        _check("all-qubit Y expectation matches parity of (n/2 + k)", bad_y),
        _check("half-filled G(2k,k) has X and Y expectation 1", bad_self),
    ]


def suite_solver() -> list[Check]:
    roots: list[str] = []
    for d in range(2, 9):
        sol = solver.solve_amplitudes(solver.roots_of_unity_spec(d))
        if not sol.feasible or any(q != 1.0 / d for q in sol.squared_amps):
            roots.append(f"(d={d})")
            continue
        spec_d = solver.roots_of_unity_spec(d)
        state = solver.admissible_state(spec_d, [0.0] * d)
        drive = Operator(np.diag(np.exp(1j * np.array(spec_d.phases))), unitary=True)
        report = solver.check_orbit(drive, state, d, tol=1e-12)
        if report.max_deviation >= 1e-12:
            roots.append(f"(d={d}) gram {report.max_deviation:.2e}")
    infeasible: list[str] = []
    if solver.solve_amplitudes(solver.EigenphaseSpec((0.0, 0.1))).feasible:
        infeasible.append("(0, 0.1)")
    eps = 0.01
    near_identity = Operator(np.diag([np.exp(1j * eps), np.exp(-1j * eps)]), unitary=True)
    feasible, _, _ = solver.reconstruct_general(near_identity)
    if feasible:
        infeasible.append("exp(i*0.01*Z)")
    degenerate: list[str] = []
    spec = solver.EigenphaseSpec((0.0, 0.0, math.pi, math.pi))
    sol = solver.solve_amplitudes(spec)
    if not sol.feasible:
        degenerate.append("(0,0,pi,pi) infeasible")
    else:
        sums = {grp: sum(sol.squared_amps[j] for j in grp) for grp, _ in sol.eigenspace_constraints}
        if any(abs(v - 0.5) > 1e-12 for v in sums.values()):
            degenerate.append(f"(0,0,pi,pi) sums {sums}")
    oracle: list[str] = []
    battery = [
        (solver.roots_of_unity_spec(2), True),
        (solver.roots_of_unity_spec(3, offset=0.37), True),
        (solver.roots_of_unity_spec(4), True),
        (solver.EigenphaseSpec((0.0, 0.1)), False),
        (solver.EigenphaseSpec((0.0, 2 * math.pi / 3 + 0.05, 4 * math.pi / 3)), False),
        (solver.EigenphaseSpec((0.0, 0.0, math.pi, math.pi)), True),
    ]
    for test_spec, _ in battery:
        want = solver.solve_amplitudes(test_spec).feasible
        if solver.brute_force_feasible(test_spec) != want:
            oracle.append(f"{tuple(round(p, 3) for p in test_spec.phases)}")
    return [
        _check("roots-of-unity specs are feasible with flat 1/d magnitudes", roots),
        _check("perturbed and near-identity drives are infeasible", infeasible),
        _check("degenerate (0,0,pi,pi) needs weight 1/2 per eigenspace", degenerate),
        _check("grid-search oracle agrees with the analytic verdict", oracle),
    ]


SUITES = {
    "projectors": suite_projectors,
    "examples": suite_examples,
    "probabilities": suite_probabilities,
    "gnk": suite_gnk,
    "solver": suite_solver,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for key in SUITES:
            out.extend(run_suite(key))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
