"""Named self-check suites: the one statement of every product-level claim.

Each suite returns a list of Check results; a suite passes iff every check
does.  Failures carry the offending (n, d, parity) combinations so a
regression is directly actionable.  ``qparity verify`` prints the suites,
and ``tests/test_acceptance.py`` runs every suite as the acceptance gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import solver, states
from .linalg import Operator, fidelity, plus_state
from .module import (
    CouplingKind,
    ModuleConfig,
    _check_qubits,
    build_projectors,
    projector_dim,
    run_module,
    statevector_qubit_limit,
)
from .states import FIDELITY_THRESHOLD

# A shift generator's entry is a Walsh-Hadamard sum of 2^n rounded terms, and each entry
# of S g or of mask S sums 2^n such terms: ~1e-13 at the n <= 10 the sign matrix allows
# by default.  Phase generators hold exact 0s and 1s.
PROJECTOR_ATOL = 1e-10
# A value from a few rounded float64 steps meets its closed form to ~1e-15:
# probabilities, fidelities, orbit Gram entries, residuals of exact Dicke sums.
_CLOSED_FORM_ATOL = 1e-12
# Dicke coefficients and all-qubit expectations sum up to 2^n rounded terms, ~1e-14.
_SUMMED_ATOL = 1e-10
# A failed check lists this many offending cases, then counts the rest.
_DETAIL_LIMIT = 6
# HiGHS's primal feasibility tolerance, its default, passed so that the verdict does not
# move with scipy: a feasible spec's constraints hold to ~1e-16, a phase moved by 1e-6
# or more misses them by far more, and a move of 2e-7 or less can read feasible.
_LP_FEASIBILITY_TOL = 1e-7
# suite_probabilities runs n = d up to this size; suite_gnk checks G(n,k) up to this n.
_PROBABILITIES_MAX_N = 12
_GNK_MAX_N = 10


@dataclass
class Check:
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)

    def detail(self) -> str:
        listed = "; ".join(self.failures[:_DETAIL_LIMIT])
        if len(self.failures) > _DETAIL_LIMIT:
            listed += f"; ... {len(self.failures) - _DETAIL_LIMIT} more"
        return listed


def _check(name: str, failures: list[str]) -> Check:
    return Check(name=name, passed=not failures, failures=failures)


def _sign_matrix(n: int) -> np.ndarray:
    """Sylvester's 2^n x 2^n sign matrix S[x, y] = (-1)^popcount(x & y), 2^(n/2) H^(x)n,
    from bit operations alone, apart from the module's butterfly; S S = 2^n I."""
    index = np.arange(1 << n)
    return np.where(np.bitwise_count(index[:, None] & index) & 1, -1.0, 1.0)


def suite_projectors(max_n: int = 8) -> list[Check]:
    # The laws are stated on ``ProjectorSet.generators``, with no 2^n x 2^n view.  P_i
    # is diag(g_i) (phase) or g_i[x ^ y] (shift), and the matrix g[x ^ y] is
    # H^(x)n diag(S g) H^(x)n, so in the mask domain, with g^ = g (phase) or g^ = S g
    # (shift), P_i P_j = delta_ij P_i reads g^_i g^_j = delta_ij g^_i entry by entry.
    # A generator must be exactly real ("hermitian"), and the laws then run on its real
    # part: the g_i sum to 1 (phase) or e_0 (shift), tr P_i is sum(g_i) or 2^n g_i[0],
    # and g_shift_i = 2^(-n) mask_i S.  That the views are exactly these matrices is
    # the module's own test, not a law.
    herm: list[str] = []
    orth: list[str] = []
    comp: list[str] = []
    dims: list[str] = []
    dual: list[str] = []
    for n in range(2, max_n + 1):
        size = 1 << n
        _check_qubits(2 * n - 1, statevector_qubit_limit(), f"the {size} x {size} sign matrix needs {8 << 2 * n} bytes")
        sign = _sign_matrix(n)
        for d in range(2, n + 1):
            rows = {}
            for coupling in CouplingKind:
                pset = build_projectors(n, d, coupling)
                gens = pset.generators
                real = gens.real
                phase = coupling is CouplingKind.PHASE
                hat = real if phase else real @ sign  # S is symmetric: row i of G S is S g_i
                for i in np.flatnonzero(np.imag(gens).any(axis=1)):
                    herm.append(f"(n={n},d={d},k={i},{coupling.value})")
                err = np.abs(hat[:, None] * hat - np.eye(d)[:, :, None] * hat).max(axis=2)
                for i, j in zip(*np.nonzero(np.triu(~(err <= PROJECTOR_ATOL)))):
                    orth.append(f"(n={n},d={d},k={i},{j},{coupling.value})")
                traces = real.sum(axis=1) if phase else size * real[:, 0]
                for i in range(d):
                    rank = projector_dim(i, n, d)
                    if pset.dims[i] != rank or not abs(traces[i] - rank) <= PROJECTOR_ATOL:
                        dims.append(f"(n={n},d={d},k={i},{coupling.value})")
                if not np.abs(real.sum(axis=0) - (1.0 if phase else np.eye(1, size)[0])).max() <= PROJECTOR_ATOL:
                    comp.append(f"(n={n},d={d},{coupling.value})")
                if sum(pset.dims) != size:
                    dims.append(f"(n={n},d={d},{coupling.value}) total")
                rows[coupling] = real
            want = rows[CouplingKind.PHASE] @ sign / size
            err = np.abs(rows[CouplingKind.SHIFT] - want).max(axis=1)
            dual += [f"(n={n},d={d},k={i})" for i in np.flatnonzero(~(err <= PROJECTOR_ATOL))]
    return [
        _check("projectors hermitian", herm),
        _check("projectors idempotent and mutually orthogonal", orth),
        _check("projectors complete (sum to identity)", comp),
        _check("projector ranks match binomial sums", dims),
        _check("shift projectors are Hadamard conjugates of phase projectors", dual),
    ]


# Squared-weight ratios of every branch heralded on |+>^n, written out by
# hand: weight j enters with C(n, j), so a branch's ratios are the binomials
# over its residue class j == parity (mod d).
BRANCH_RATIOS = {
    (4, 3): {0: {0: 1, 3: 4}, 1: {1: 4, 4: 1}, 2: {2: 1}},
    (5, 3): {0: {0: 1, 3: 10}, 1: {1: 1, 4: 1}, 2: {2: 10, 5: 1}},
    (5, 4): {0: {0: 1, 4: 5}, 1: {1: 5, 5: 1}, 2: {2: 1}, 3: {3: 1}},
}


def _branch_failures(n: int, d: int, ratios: dict[int, dict[int, int]]) -> list[str]:
    bad: list[str] = []
    records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
    for rec in records:
        if rec.zero_probability:
            bad.append(f"(n={n},d={d},k={rec.parity}) zero probability")
            continue
        dec = rec.classification.decomposition
        got = states.squared_weight_ratios(dec)
        if got != ratios[rec.parity]:
            bad.append(f"(n={n},d={d},k={rec.parity}) ratios {got}")
        pred = states.predicted_branch(n, d, rec.parity)
        if set(dec.coeffs) != set(pred.coeffs):
            bad.append(f"(n={n},d={d},k={rec.parity}) weights {sorted(dec.coeffs)}")
            continue
        err = max(abs(dec.coeffs[k] - pred.coeffs[k]) for k in pred.coeffs)
        if not (err < _SUMMED_ATOL and dec.residual < _CLOSED_FORM_ATOL):
            bad.append(f"(n={n},d={d},k={rec.parity}) err={err:.2e} res={dec.residual:.2e}")
    return bad


def gnk_branch_failures(n: int, k: int) -> list[str]:
    """The parity-(k mod d) branch of a d = n - 2k module run on |+>^n.

    The branch carries the residue class {w <= n : w == k (mod d)}.  It is
    G(n,k) = (D(n,k) + D(n,n-k))/sqrt(2) exactly when that class is {k, n-k},
    which holds iff k < d, i.e. 3k < n.  Outside that domain (e.g. n=9, k=3,
    class {0,3,6,9}) the branch's content is fixed by binomials alone, and no
    branch of the run reaches G(n,k).
    """
    d = n - 2 * k
    parity = k % d
    weights = list(range(parity, n + 1, d))
    tag = f"(n={n},d={d},k={k})"
    records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
    rec = next(r for r in records if r.parity == parity)
    cls = rec.classification
    target = states.g_general(n, k)
    fid = fidelity(rec.post_state, target)
    named = cls.family is (states.Family.G if k == 1 else states.Family.G_GENERAL) and cls.k == k
    if set(weights) == {k, n - k}:
        if not named or min(cls.fidelity, fid) < FIDELITY_THRESHOLD:
            return [f"{tag} got {cls.label()}, fidelity {fid:.12f}"]
        return []
    bad = []
    if named:
        bad.append(f"{tag} classified {cls.label()} outside the domain")
    combs = {wt: math.comb(n, wt) for wt in weights}
    total = sum(combs.values())
    common = math.gcd(*combs.values())
    dec = cls.decomposition
    if sorted(dec.coeffs) != weights:
        bad.append(f"{tag} Dicke weights {sorted(dec.coeffs)}, expected {weights}")
    ratios = states.squared_weight_ratios(dec)
    if ratios != {wt: c // common for wt, c in combs.items()}:
        bad.append(f"{tag} squared-weight ratios {ratios}")
    if rec.probability_exact != Fraction(total, 1 << n):
        bad.append(f"{tag} p = {rec.probability_exact}, expected {Fraction(total, 1 << n)}")
    want_fid = (math.sqrt(combs[k]) + math.sqrt(combs[n - k])) ** 2 / (2 * total)
    if not abs(fid - want_fid) <= _CLOSED_FORM_ATOL:
        bad.append(f"{tag} fidelity {fid!r} to G(n,k), expected {want_fid!r}")
    best = max(fidelity(r.post_state, target) for r in records if r.post_state is not None)
    if not best < FIDELITY_THRESHOLD:
        bad.append(f"{tag} some branch reaches fidelity {best!r} to G(n,k)")
    return bad


def suite_examples() -> list[Check]:
    checks = []
    decomp: list[str] = []
    for (n, d), ratios in BRANCH_RATIOS.items():
        decomp += _branch_failures(n, d, ratios)
    checks.append(_check("small-register branches match closed-form Dicke content", decomp))

    labels: list[str] = []
    w3 = states.w(3)
    expected = {
        (3, 3): {
            0: ("GHZ", False, states.ghz(3)),
            1: ("W", False, w3),
            2: ("W", True, states.bitflip_all(w3)),
        },
        (4, 3): {2: ("Dicke(4,2)", False, states.dicke(4, 2))},
        (5, 4): {2: ("Dicke(5,2)", False, states.dicke(5, 2)), 3: ("Dicke(5,3)", False, states.dicke(5, 3))},
    }
    for (n, d), want in expected.items():
        records = run_module(plus_state(n), ModuleConfig(n=n, d=d))
        if len(records) != d:
            labels.append(f"(n={n},d={d}) {len(records)} branches, expected {d}")
        for rec in records:
            if rec.parity not in want:
                continue
            label, flipped, ref = want[rec.parity]
            cls = rec.classification
            fid = fidelity(rec.post_state, ref)
            if cls.label() != label or cls.up_to_bitflip != flipped or not fid >= FIDELITY_THRESHOLD:
                labels.append(
                    f"(n={n},d={d},k={rec.parity}) got {cls.label()} "
                    f"(up_to_bitflip={cls.up_to_bitflip}), fidelity {fid:.12f}"
                )
    checks.append(_check("anchor branches classify as GHZ/W/Dicke", labels))

    gn: list[str] = []
    for n in range(5, 10):
        records = run_module(plus_state(n), ModuleConfig(n=n, d=n - 2))
        rec = next(r for r in records if r.parity == 1)
        cls = rec.classification
        if cls.family is not states.Family.G or not cls.fidelity >= FIDELITY_THRESHOLD:
            gn.append(f"(n={n},d={n - 2}) got {cls.label()}")
    checks.append(_check("parity-1 branch at d=n-2 is G_n for n=5..9", gn))

    gnk: list[str] = []
    for n in range(5, 11):
        for k in range(1, (n - 2) // 2 + 1):
            gnk += gnk_branch_failures(n, k)
    checks.append(_check("parity-k branch at d=n-2k is G(n,k) whenever k < d", gnk))
    return checks


def w_baseline(n: int) -> Fraction:
    """Success probability of the linear-optics W_n preparation the module is compared
    with: n/2^(2n-2) for odd n, n/2^(2n-3) for even n."""
    return Fraction(n, 1 << (2 * n - 2)) if n % 2 else Fraction(n, 1 << (2 * n - 3))


def suite_probabilities() -> list[Check]:
    per_outcome: list[str] = []
    ghz_rate: list[str] = []
    w_rate: list[str] = []
    gain: list[str] = []
    for n in range(2, _PROBABILITIES_MAX_N + 1):
        records = run_module(plus_state(n), ModuleConfig(n=n, d=n))
        by_parity = {r.parity: r for r in records}
        for r in records:
            want = Fraction(
                sum(math.comb(n, j) for j in range(r.parity, n + 1, n)), 1 << n
            )
            if r.probability_exact != want or not abs(r.probability - want) <= _CLOSED_FORM_ATOL:
                per_outcome.append(f"(n={n},k={r.parity})")
        if by_parity[0].probability_exact != Fraction(1, 1 << (n - 1)):
            ghz_rate.append(f"(n={n})")
        if n >= 3:
            agg = by_parity[1].probability_exact + by_parity[n - 1].probability_exact
            if agg != Fraction(n, 1 << (n - 1)):
                w_rate.append(f"(n={n})")
            for parity in (1, n - 1):
                if by_parity[parity].classification.label() != "W":
                    w_rate.append(f"(n={n},k={parity}) is {by_parity[parity].classification.label()}")
            if agg / w_baseline(n) < Fraction(1 << (n - 2)):
                gain.append(f"(n={n})")
    return [
        _check("per-outcome probabilities are binomial-sum rationals", per_outcome),
        _check("GHZ branch probability is 2^(1-n)", ghz_rate),
        _check("aggregated W probability is n*2^(1-n)", w_rate),
        _check("gain over the linear-optics baseline is at least 2^(n-2)", gain),
    ]

def suite_gnk() -> list[Check]:
    bad_x: list[str] = []
    bad_y: list[str] = []
    bad_self: list[str] = []
    for n in range(2, _GNK_MAX_N + 1):
        for k in range(n + 1):
            if n == 2 * k:
                continue
            rep = states.expectations(states.g_general(n, k))
            if not (abs(rep.x_all - 1.0) <= _SUMMED_ATOL and rep.max_imag <= _SUMMED_ATOL):
                bad_x.append(f"(n={n},k={k})")
            want_y = 0.0 if n % 2 else (-1.0) ** (n // 2 + k)
            if not abs(rep.y_all - want_y) <= _SUMMED_ATOL:
                bad_y.append(f"(n={n},k={k})")
    for k in range(1, 6):
        rep = states.expectations(states.g_general(2 * k, k))
        if not (abs(rep.y_all - 1.0) <= _SUMMED_ATOL and abs(rep.x_all - 1.0) <= _SUMMED_ATOL):
            bad_self.append(f"(k={k})")
    return [
        _check("all-qubit X expectation is 1 on G(n,k), n != 2k", bad_x),
        _check("all-qubit Y expectation matches parity of (n/2 + k)", bad_y),
        _check("half-filled G(2k,k) has X and Y expectation 1", bad_self),
    ]


def _lp_weights(spec: solver.EigenphaseSpec) -> np.ndarray | None:
    """Squared magnitudes q that give ``spec``'s drive an orthonormal orbit, or None.

    The orbit Gram matrix of sum_j a_j |j> depends only on q_j = |a_j|^2, so a seed
    exists iff the linear program q >= 0 (linprog's default bounds) and
    sum_j q_j lambda_j^m = delta_{m0} for m = 0 .. s-1, real and imaginary parts, is
    feasible, with s the number of distinct eigenvalues.  HiGHS decides it; any status
    but feasible or infeasible raises.
    """
    import scipy.optimize  # deferred: scipy dominates `import qparity` otherwise

    s = solver.classify_eigenphases(spec).s
    # Phases relative to the first, so that a global phase enters no coefficient: HiGHS
    # drops coefficients near 1e-9 and may then read a feasible spec infeasible.
    powers = np.exp(1j * np.arange(s)[:, None] * (np.array(spec.phases) - spec.phases[0]))
    a_eq = np.vstack([powers.real, powers.imag[1:]])  # row 0 is sum(q) = 1
    b_eq = np.zeros(2 * s - 1)
    b_eq[0] = 1.0
    options = {"primal_feasibility_tolerance": _LP_FEASIBILITY_TOL}
    result = scipy.optimize.linprog(np.zeros(spec.d), A_eq=a_eq, b_eq=b_eq, method="highs", options=options)
    if result.status not in (0, 2):
        raise RuntimeError(f"feasibility program ended with status {result.status}: {result.message}")
    return result.x if result.status == 0 else None


def suite_solver() -> list[Check]:
    roots: list[str] = []
    for d in range(2, 9):
        spec_d = solver.roots_of_unity_spec(d)
        sol = solver.solve_amplitudes(spec_d)
        if not sol.feasible or any(q != 1.0 / d for q in sol.squared_amps):
            roots.append(f"(d={d})")
            continue
        seed = solver.admissible_state(spec_d, [0.0] * d)
        dev = solver.orbit_deviation(np.exp(1j * np.array(spec_d.phases)), seed.amps, d)
        if not dev < _CLOSED_FORM_ATOL:
            roots.append(f"(d={d}) gram {dev:.2e}")
    infeasible: list[str] = []
    if solver.solve_amplitudes(solver.EigenphaseSpec((0.0, 0.1))).feasible:
        infeasible.append("(0, 0.1)")
    eps = 0.01
    feasible, _, _ = solver.reconstruct_general(Operator(np.diag(np.exp([1j * eps, -1j * eps])), unitary=True))
    if feasible:
        infeasible.append("exp(i*0.01*Z)")
    degenerate: list[str] = []
    spec = solver.EigenphaseSpec((0.0, 0.0, math.pi, math.pi))
    sol = solver.solve_amplitudes(spec)
    if not sol.feasible:
        degenerate.append("(0,0,pi,pi) infeasible")
    else:
        # Both the reported constraint weight and the amplitudes' own sum.
        for grp, wt in sol.eigenspace_constraints:
            total = sum(sol.squared_amps[j] for j in grp)
            if not (abs(wt - 0.5) <= _CLOSED_FORM_ATOL and abs(total - 0.5) <= _CLOSED_FORM_ATOL):
                degenerate.append(f"(0,0,pi,pi) group {grp}: weight {wt}, amplitudes {total}")
    oracle: list[str] = []
    battery = [
        solver.roots_of_unity_spec(2),
        solver.roots_of_unity_spec(3, offset=0.37),
        solver.roots_of_unity_spec(4),
        solver.EigenphaseSpec((0.0, 0.1)),
        solver.EigenphaseSpec((0.0, 2 * math.pi / 3 + 0.05, 4 * math.pi / 3)),
        solver.EigenphaseSpec((0.0, 0.0, math.pi, math.pi)),
    ]
    for d in range(2, 5):
        battery.append(solver.roots_of_unity_spec(d, offset=0.3))
        phases = solver.roots_of_unity_spec(d).phases
        battery.append(solver.EigenphaseSpec((phases[0], phases[1] + 0.08) + phases[2:]))
    for test_spec in battery:
        want = solver.solve_amplitudes(test_spec).feasible
        if (_lp_weights(test_spec) is not None) != want:
            oracle.append(f"{tuple(round(p, 3) for p in test_spec.phases)}")
    return [
        _check("roots-of-unity specs are feasible with flat 1/d magnitudes", roots),
        _check("perturbed and near-identity drives are infeasible", infeasible),
        _check("degenerate (0,0,pi,pi) needs weight 1/2 per eigenspace", degenerate),
        _check("linear-program oracle agrees with the analytic verdict", oracle),
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
