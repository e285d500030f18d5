"""Independent reference for every output the benchmark checks.

Nothing here imports the program under test.  A branch probability comes
straight from the input amplitudes: the parity-k branch of the phase coupling
holds the basis strings whose Hamming weight is k mod d, and the shift
coupling uses the same mask after a Walsh-Hadamard transform.  Exact values
come from ``math.comb``.  Every check returns a list of failure messages;
an empty list means the output is correct.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

# Reports print floats with 12 significant digits.
REPORT_ATOL = 1e-9
# In-memory records against the projector route (the bound test_09 uses).
RECORD_ATOL = 1e-12
FIDELITY_MIN = 1.0 - 1e-10
# Branches below this probability are reported as zero-probability.
ZERO_PROBABILITY = 1e-12
SAMPLE_SIGMAS = 5.0


def popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    weights = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        weights += (idx >> bit) & 1
    return weights


def walsh_hadamard(amps: np.ndarray) -> np.ndarray:
    """Amplitudes in the |+>/|-> product basis; index bit 1 marks |->."""
    h = np.asarray(amps, dtype=complex)
    size = h.size
    step = 1
    while step < size:
        h = h.reshape(-1, 2, step)
        h = np.stack((h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]), axis=1)
        step *= 2
    return h.reshape(-1) / math.sqrt(size)


def plus_amplitudes(n: int) -> np.ndarray:
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)


def branch_probabilities(amps: np.ndarray, d: int, coupling: str) -> np.ndarray:
    """Probability of each parity 0..d-1 heralded on the given input."""
    n = amps.size.bit_length() - 1
    basis = amps if coupling == "phase" else walsh_hadamard(amps)
    return np.bincount(popcounts(n) % d, weights=np.abs(basis) ** 2, minlength=d)


def _plus_weights(n: int, coupling: str, parity: int, d: int) -> list[int]:
    """Computational-basis weights present in the parity branch of |+>^n.

    In the Hadamard basis |+>^n is the all-zero string, so the shift coupling
    heralds parity 0 with certainty and leaves |+>^n (every weight) behind.
    """
    if coupling == "phase":
        return [j for j in range(n + 1) if j % d == parity]
    return list(range(n + 1)) if parity == 0 else []


def plus_exact_probability(n: int, d: int, coupling: str, parity: int) -> Fraction:
    if coupling == "phase":
        return Fraction(sum(math.comb(n, j) for j in _plus_weights(n, coupling, parity, d)), 1 << n)
    return Fraction(1 if parity == 0 else 0)


def plus_dicke_content(n: int, d: int, coupling: str, parity: int) -> dict[int, float]:
    """Closed form: Dicke coefficient proportional to sqrt(C(n, w))."""
    weights = _plus_weights(n, coupling, parity, d)
    raw = {j: math.sqrt(math.comb(n, j)) for j in weights}
    norm = math.sqrt(sum(c * c for c in raw.values()))
    return {j: c / norm for j, c in raw.items()}


def checksum_ok(payload: dict) -> bool:
    """SHA-256 over the sorted, compact JSON of the payload minus its checksum."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return payload.get("checksum") == hashlib.sha256(text.encode()).hexdigest()


def check_simulate_report(payload: dict, amps: np.ndarray, d: int, coupling: str, plus_input: bool) -> list[str]:
    """Check a ``simulate --json`` report against the input amplitudes.

    For |+>^n inputs the exact probabilities and the Dicke content are checked
    against their closed forms; for random inputs every nonzero branch must
    classify as Other.
    """
    n = amps.size.bit_length() - 1
    bad = [] if checksum_ok(payload) else ["checksum mismatch"]
    cfg = payload.get("config", {})
    got_cfg = (cfg.get("qubits"), cfg.get("ancilla_dim"), cfg.get("coupling"))
    if got_cfg != (n, d, coupling):
        bad.append(f"config {got_cfg} != {(n, d, coupling)}")
    outcomes = payload.get("outcomes", [])
    if sorted(o.get("parity") for o in outcomes) != list(range(d)):
        return bad + [f"parities {[o.get('parity') for o in outcomes]} are not 0..{d - 1}"]
    probs = branch_probabilities(amps, d, coupling)
    for o in outcomes:
        k = o["parity"]
        p = float(o["probability"])
        if abs(p - probs[k]) > REPORT_ATOL:
            bad.append(f"parity {k}: probability {p} != {probs[k]:.12g}")
        if o["zero_probability"] != bool(probs[k] < ZERO_PROBABILITY):
            bad.append(f"parity {k}: zero_probability flag {o['zero_probability']}")
        if plus_input:
            exact = plus_exact_probability(n, d, coupling, k)
            if o["probability_exact"] != f"{exact.numerator}/{exact.denominator}":
                bad.append(f"parity {k}: exact {o['probability_exact']} != {exact}")
            want = plus_dicke_content(n, d, coupling, k)
            got = {int(j): float(c) for j, c in (o["dicke_coeffs"] or {}).items()}
            if set(got) != set(want) or any(abs(got[j] - c) > REPORT_ATOL for j, c in want.items()):
                bad.append(f"parity {k}: Dicke content {sorted(got)} differs from sqrt(C(n,w))")
        elif not o["zero_probability"] and o["classification"] != "Other":
            bad.append(f"parity {k}: random input classified as {o['classification']}")
    return bad


def check_sample(text: str, probs: np.ndarray, shots: int) -> list[str]:
    """Counts per parity within SAMPLE_SIGMAS binomial deviations."""
    draws = np.array(text.split(), dtype=np.int64)
    if draws.size != shots:
        return [f"{draws.size} draws, expected {shots}"]
    if draws.min() < 0 or draws.max() >= probs.size:
        return [f"parity outside [0, {probs.size})"]
    counts = np.bincount(draws, minlength=probs.size)
    bad = []
    for k, (c, p) in enumerate(zip(counts, probs)):
        sigma = math.sqrt(shots * p * (1.0 - p))
        if abs(c - shots * p) > SAMPLE_SIGMAS * sigma + 1.0:
            bad.append(f"parity {k}: {c} draws, expected {shots * p:.1f} +- {sigma:.1f}")
    return bad


def check_module_records(records, amps: np.ndarray, d: int, coupling: str, projectors) -> list[str]:
    """Check ``run_module`` records against the mask oracle and the given
    projector matrices: probabilities, and post-state fidelity to P|psi>."""
    if sorted(r.parity for r in records) != list(range(d)):
        return [f"parities {[r.parity for r in records]} are not 0..{d - 1}"]
    probs = branch_probabilities(amps, d, coupling)
    bad = []
    for r in records:
        k = r.parity
        if abs(r.probability - probs[k]) > REPORT_ATOL:
            bad.append(f"parity {k}: probability {r.probability} != mask {probs[k]}")
        proj = projectors[k] @ amps
        p = float(np.vdot(proj, proj).real)
        if abs(p - r.probability) > RECORD_ATOL:
            bad.append(f"parity {k}: probability {r.probability} != projector {p}")
        if r.post_state is None:
            if p >= ZERO_PROBABILITY:
                bad.append(f"parity {k}: no post-state for probability {p}")
            continue
        fid = abs(np.vdot(proj / math.sqrt(p), r.post_state.amps)) ** 2
        if fid < FIDELITY_MIN:
            bad.append(f"parity {k}: post-state fidelity {fid}")
    return bad


def check_projector_ranks(dims, n: int, d: int) -> list[str]:
    want = [sum(math.comb(n, j) for j in range(i, n + 1, d)) for i in range(d)]
    return [] if list(dims) == want else [f"projector ranks {list(dims)} != {want}"]


def check_distribution(probs, amps: np.ndarray, d: int, coupling: str) -> list[str]:
    want = branch_probabilities(amps, d, coupling)
    if len(probs) != d:
        return [f"{len(probs)} probabilities for d={d}"]
    return [
        f"parity {k}: {p} != {want[k]}" for k, p in enumerate(probs) if abs(p - want[k]) > REPORT_ATOL
    ]


def check_verify_output(text: str) -> list[str]:
    last = text.strip().splitlines()[-1] if text.strip() else ""
    passed, _, total = last.partition(" ")[0].partition("/")
    if not passed or passed != total or not last.endswith("checks passed"):
        return [f"verify reported {last!r}"]
    return []


def _table_exact(family: str, row: dict) -> tuple[str, Fraction]:
    if family == "dicke":
        n, k = row["n"], row["parity"]
        return "probability_exact", Fraction(sum(math.comb(n, j) for j in range(k, n + 1, n)), 1 << n)
    if family == "w-compare":
        return "p_w", Fraction(row["n"], 1 << (row["n"] - 1))
    k = row["k"]
    return "probability_exact", Fraction(math.comb(2 * k, k), 1 << (2 * k))


def _table_rows(family: str, max_n: int) -> int:
    if family == "dicke":
        return sum(range(2, max_n + 1))
    if family == "w-compare":
        return max_n - 2
    return max_n // 2


def check_table(payload: dict, family: str, max_n: int) -> list[str]:
    bad = [] if checksum_ok(payload) else ["checksum mismatch"]
    rows = payload.get("rows", [])
    if payload.get("family") != family or len(rows) != _table_rows(family, max_n):
        return bad + [f"{payload.get('family')} table has {len(rows)} rows"]
    for row in rows:
        key, exact = _table_exact(family, row)
        if row[key] != f"{exact.numerator}/{exact.denominator}":
            bad.append(f"{family} row {row}: {key} != {exact}")
    return bad
