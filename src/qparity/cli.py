"""Command-line front end: simulate, solve, verify, table, sample.

Exit codes: 0 success (or all checks passed), 1 infeasible spec, failed
checks, or branch or projector probabilities that do not sum to 1, 2
usage/input errors, 3 resource-envelope violations or running out of memory.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from pathlib import Path
from typing import TextIO

import numpy as np

from . import solver, states, verify
from .linalg import Ket, plus_state, squared_norm
from .module import (
    CouplingKind,
    ModuleConfig,
    OutcomeRecord,
    ResourceLimitError,
    _check_matrix,
    _ProbabilitySumError,
    outcome_distribution,
    projector_dim,
    run_module,
)
from .reports import SCHEMA_VERSION, canonical_json, fmt_float, fmt_fraction, with_checksum

# Amplitudes written to 7 significant digits leave the norm ~1e-7 off 1; the state
# is renormalized exactly on load, so only a file that holds no unit vector misses by more.
_FILE_NORM_ATOL = 1e-6
# ``sample`` draws and writes this many shots at a time, so its working space does not grow
# with --shots; ``Generator.choice`` takes its uniforms in order, so the blocks draw what one call would.
_SAMPLE_BLOCK = 1 << 20
# numpy's reader decompresses a path with one of these suffixes, so such a file is parsed line by line.
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def load_amplitude_file(path: str | Path) -> Ket:
    """Read a state from the plain-text amplitude format.

    First significant line: ``dims: d1 d2 ... dk``; then one ``re im`` pair
    per basis index in mixed-radix order.  Blank lines and ``#`` comments
    are ignored.  The state must be normalized to within 1e-6 and is
    renormalized exactly on load.  Errors name the file's own line numbers.
    A line is what iterating the open file yields, for the header and the
    body alike.
    """
    with open(path) as lines:
        head, dims = _header_dims(path, lines)
        total = math.prod(dims)
        # One pass of numpy's reader over the lines after the header: handed the path, it
        # reads the file in chunks (an open file it reads one Python line at a time).  Its
        # arrays are sized by the file, not the header.
        pairs = None
        if not str(path).endswith(_NUMPY_DECOMPRESSES):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a body without data
                try:
                    pairs = np.loadtxt(path, comments="#", skiprows=head, ndmin=2)
                except ValueError:
                    pass
        if pairs is None or pairs.shape != (total, 2):
            # Locates the error, or parses what only Python's float accepts ("1_0").
            pairs = _parse_amplitude_lines(path, lines, total)
    amps = pairs.view(complex).reshape(-1)
    nrm = math.sqrt(squared_norm(amps))
    if not abs(nrm - 1.0) <= _FILE_NORM_ATOL:
        raise ValueError(f"{path}: state norm {nrm:.8f} too far from 1")
    amps /= nrm
    return Ket._adopt(amps, dims)


def _read_dims(path: str | Path) -> tuple[int, ...]:
    """The factor dims that an amplitude file's header names, read without its body."""
    with open(path) as lines:
        return _header_dims(path, lines)[1]


def _header_dims(path: str | Path, lines: Iterator[str]) -> tuple[int, tuple[int, ...]]:
    """The line number and dims of the header, the first significant line; ``lines`` is left just past it."""
    head, text = next(_significant(lines), (0, ""))
    return head, _parse_dims(path, text)


def _significant(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that holds more than blanks and a ``#`` comment."""
    return ((no, text) for no, raw in enumerate(lines, 1) if (text := raw.split("#", 1)[0].strip()))


def _parse_dims(path: str | Path, head: str) -> tuple[int, ...]:
    """The positive factors a ``dims: d1 d2 ...`` header lists; raises on any other line."""
    if not head.lower().startswith("dims:"):
        raise ValueError(f"{path}: first line must be 'dims: d1 d2 ...'")
    try:
        dims = tuple(int(tok) for tok in head.split(":", 1)[1].split())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed dims header") from exc
    if not dims or min(dims) < 1:
        raise ValueError(f"{path}: dims header must list positive factors, got {dims}")
    return dims


def _parse_amplitude_lines(path: str | Path, lines: TextIO, total: int) -> np.ndarray:
    """The ``re im`` pairs of the open file's body, one significant line at a time.

    A first pass only counts the body's lines, so the count error comes first and
    no line is held; a second parses them straight into the one array.
    """
    lines.seek(0)
    found = sum(1 for _ in _significant(lines)) - 1  # the first significant line is the header
    if found != total:
        raise ValueError(f"{path}: expected {total} amplitude lines, found {found}")
    lines.seek(0)
    body = _significant(lines)
    next(body)
    pairs = np.empty((total, 2))
    for row, (no, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {no}: expected 're im'")
        try:
            pairs[row] = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line {no}: not numeric") from exc
    return pairs


def write_amplitude_file(path: str | Path, state: Ket) -> None:
    lines = ["dims: " + " ".join(str(d) for d in state.factor_dims)]
    for a in state.amps:
        lines.append(f"{float(a.real)!r} {float(a.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, command: str, payload: dict, render: Callable[[dict], list[str]]) -> None:
    """Write ``payload`` as checksummed JSON under ``--json``, else as the text lines ``render`` makes of it."""
    if args.json:
        text = canonical_json(with_checksum({"schema": SCHEMA_VERSION, "command": command, **payload}))
    else:
        text = "\n".join(render(payload))
    _emit(text + "\n", args.out)


def _resolve_input(args) -> tuple[Ket, str, ModuleConfig]:
    """The register, its descriptor and its config; the config checks the
    qubit cap before |+>^n is built or an amplitude file's body is read."""
    plus = args.input == "plus"
    if plus:
        if args.qubits is None:
            raise ValueError("--qubits is required when --input is 'plus'")
        descriptor, n = "plus", args.qubits
    else:
        dims = _read_dims(args.input)
        if any(d != 2 for d in dims):
            raise ValueError(f"{args.input}: register factors must all be qubits")
        descriptor, n = str(args.input), len(dims)
        if args.qubits is not None and args.qubits != n:
            raise ValueError(f"--qubits {args.qubits} disagrees with file register of {n} qubits")
    config = ModuleConfig(n, args.ancilla_dim, CouplingKind(args.coupling))
    return plus_state(n) if plus else load_amplitude_file(args.input), descriptor, config


def _outcome_payload(rec: OutcomeRecord) -> dict:
    payload: dict = {
        "outcome": rec.outcome_label,
        "parity": rec.parity,
        "probability": fmt_float(rec.probability),
        "probability_exact": None
        if rec.probability_exact is None
        else fmt_fraction(rec.probability_exact),
        "zero_probability": rec.zero_probability,
    }
    if rec.zero_probability:
        payload.update(
            {"classification": None, "up_to_bitflip": None, "dicke_coeffs": None, "residual": None}
        )
        return payload
    cls = rec.classification
    dec = cls.decomposition
    ratios = states.squared_weight_ratios(dec)
    payload.update(
        {
            "classification": cls.label(),
            "up_to_bitflip": cls.up_to_bitflip,
            "dicke_coeffs": {str(k): fmt_float(c) for k, c in sorted(dec.coeffs.items())},
            "dicke_weights": None if ratios is None else {str(k): v for k, v in ratios.items()},
            "residual": fmt_float(dec.residual),
        }
    )
    return payload


def _simulate_lines(payload: dict) -> list[str]:
    config = payload["config"]
    lines = [
        f"parity module: n={config['qubits']} qubits, d={config['ancilla_dim']} ancilla, "
        f"{config['coupling']} coupling",
        f"input: {config['input']}; measurement basis: {config['measurement_basis']}",
        f"{'parity':>6}  {'outcome':>7}  {'p (exact)':>10}  {'p (float)':<16}  "
        f"{'classification':<24}  dicke k:weight",
    ]
    for row in payload["outcomes"]:
        if row["classification"] is None:
            label, weights = "(zero probability)", "-"
        else:
            label = row["classification"] + (" (up to bitflip)" if row["up_to_bitflip"] else "")
            shown = row["dicke_coeffs"] if row["dicke_weights"] is None else row["dicke_weights"]
            weights = " ".join(f"{k}:{v}" for k, v in shown.items())
        lines.append(
            f"{row['parity']:>6}  {row['outcome']:>7}  {row['probability_exact'] or '-':>10}  "
            f"{row['probability']:<16}  {label:<24}  {weights}"
        )
    return lines


def cmd_simulate(args) -> int:
    state, descriptor, config = _resolve_input(args)
    records = sorted(run_module(state, config), key=lambda r: (r.parity, r.outcome_label))
    payload = {
        "config": {
            "qubits": config.n,
            "ancilla_dim": config.d,
            "coupling": config.coupling.value,
            "input": descriptor,
            "measurement_basis": config.coupling.measurement_basis,
        },
        "outcomes": [_outcome_payload(r) for r in records],
    }
    _report(args, "simulate", payload, _simulate_lines)
    return 0


def _parse_phases(text: str) -> solver.EigenphaseSpec:
    """The spec of ``--phases``, refused when the cap does not admit its d x d drive;
    ``roots:D`` is refused before its D phases exist."""
    if text.startswith("roots:"):
        try:
            d = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad shorthand {text!r}; expected roots:D") from exc
        if d >= 2:  # roots_of_unity_spec refuses the rest as input errors
            _check_matrix(d, f"the drive of {d} eigenphases")
        return solver.roots_of_unity_spec(d)
    try:
        phases = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"could not parse phase list {text!r}") from exc
    _check_matrix(len(phases), f"the drive of {len(phases)} eigenphases")
    return solver.EigenphaseSpec(phases)


def _solve_lines(payload: dict) -> list[str]:
    lines = [
        "eigenphases: " + ", ".join(payload["phases"]),
        f"distinct eigenvalues: {payload['distinct_eigenvalues']} "
        f"(multiplicities {', '.join(map(str, payload['multiplicities']))})",
        f"feasible: {'yes' if payload['feasible'] else 'no'}",
    ]
    if not payload["feasible"]:
        return lines + [
            "no state yields an orthonormal orbit: the distinct eigenvalues are "
            "not a rotated set of roots of unity"
        ]
    lines.append("squared magnitudes: " + ", ".join(payload["squared_amps"]))
    for constraint in payload["eigenspace_constraints"]:
        lines.append(f"eigenspace {tuple(constraint['indices'])}: total weight {constraint['weight']}")
    lines.append(f"phase offset: {payload['phase_offset']}")
    lines.append(f"orbit Gram deviation: {payload['gram_deviation']}")
    return lines


def cmd_solve(args) -> int:
    spec = _parse_phases(args.phases)
    solution = solver.solve_amplitudes(spec)
    gram_dev = None
    if solution.feasible:
        seed = solver.admissible_state(spec, [0.0] * spec.d)
        gram_dev = solver.orbit_deviation(np.exp(1j * np.array(spec.phases)), seed.amps, solution.structure.s)
    payload = {
        "phases": [fmt_float(p) for p in spec.phases],
        "feasible": solution.feasible,
        "distinct_eigenvalues": solution.structure.s,
        "multiplicities": list(solution.structure.multiplicities),
        "phase_offset": fmt_float(solution.canonical_phase_offset),
        "squared_amps": None
        if solution.squared_amps is None
        else [fmt_float(q) for q in solution.squared_amps],
        "eigenspace_constraints": [
            {"indices": list(grp), "weight": fmt_float(wt)}
            for grp, wt in solution.eigenspace_constraints
        ],
        "gram_deviation": None if gram_dev is None else fmt_float(gram_dev),
    }
    _report(args, "solve", payload, _solve_lines)
    return 0 if solution.feasible else 1


def cmd_verify(args) -> int:
    checks = verify.run_suite(args.suite)
    lines = []
    for check in checks:
        if check.passed:
            lines.append(f"PASS  {check.name}")
        else:
            lines.append(f"FAIL  {check.name}: {check.detail()}")
    failed = sum(not c.passed for c in checks)
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def _dicke_rows(max_n: int) -> Iterator[dict]:
    for n in range(2, max_n + 1):
        for k in range(n):
            p = Fraction(projector_dim(k, n, n), 1 << n)
            partner = (n - k) % n
            pair = None
            if k <= partner:  # each dual pair once; a self-dual class is a single outcome
                pair = p if k == partner else p + Fraction(projector_dim(partner, n, n), 1 << n)
            yield {
                "n": n,
                "parity": k,
                "probability_exact": fmt_fraction(p),
                "probability": fmt_float(float(p)),
                "dual_pair": None if pair is None else fmt_fraction(pair),
                "self_dual": k == partner,
            }


def _dicke_lines(rows: list[dict]) -> list[str]:
    header = f"{'n':>3} {'parity':>6}  {'p (exact)':>12} {'p (float)':<15} {'dual-pair p':>12}  note"
    note = "self-dual class: single outcome; doubling would overcount"
    return [header] + [
        f"{row['n']:>3} {row['parity']:>6}  {row['probability_exact']:>12} {row['probability']:<15} "
        f"{row['dual_pair'] or '-':>12}  {note if row['self_dual'] else ''}"
        for row in rows
    ]


def _w_compare_rows(max_n: int) -> Iterator[dict]:
    for n in range(3, max_n + 1):
        p_w = Fraction(n, 1 << (n - 1))
        baseline = verify.w_baseline(n)
        gain = p_w / baseline
        bound = Fraction(1 << (n - 2))
        yield {
            "n": n,
            "p_w": fmt_fraction(p_w),
            "baseline": fmt_fraction(baseline),
            "gain": fmt_fraction(gain),
            "bound": fmt_fraction(bound),
            "ok": gain >= bound,
        }


def _w_compare_lines(rows: list[dict]) -> list[str]:
    header = f"{'n':>3}  {'p(W_n)':>10} {'baseline':>14} {'gain':>12} {'bound 2^(n-2)':>14}  ok"
    return [header] + [
        f"{row['n']:>3}  {row['p_w']:>10} {row['baseline']:>14} "
        f"{row['gain']:>12} {row['bound']:>14}  {'yes' if row['ok'] else 'NO'}"
        for row in rows
    ]


def _halfdicke_rows(max_n: int) -> Iterator[dict]:
    for k in range(1, max_n // 2 + 1):
        n = 2 * k
        p = Fraction(math.comb(n, k), 1 << n)
        asym = 1.0 / math.sqrt(math.pi * k)
        yield {
            "k": k,
            "n": n,
            "probability_exact": fmt_fraction(p),
            "probability": fmt_float(float(p)),
            "asymptote": fmt_float(asym),
            "relative_error": fmt_float(abs(float(p) - asym) / asym),
            "pair_form": fmt_float(2 * asym),
            "self_dual": True,
        }


def _halfdicke_lines(rows: list[dict]) -> list[str]:
    header = (
        f"{'k':>3} {'n=2k':>5}  {'p (exact)':>14} {'p (float)':<15} {'1/sqrt(pi k)':<15} "
        f"{'rel err':<12} {'pair form 2/sqrt(pi k)':<22}"
    )
    note = (
        "note: the half-filled branch is self-dual (k = n-k), a single outcome; "
        "the dual-pair aggregate form 2/sqrt(pi k) double-counts it and "
        "overstates this probability by a factor of 2."
    )
    return [header] + [
        f"{row['k']:>3} {row['n']:>5}  {row['probability_exact']:>14} {row['probability']:<15} "
        f"{row['asymptote']:<15} {row['relative_error']:<12} {row['pair_form']:<22}"
        for row in rows
    ] + [note]


# Each family's rows for a --max-n, and the text lines of those rows.
_TABLES = {
    "dicke": (_dicke_rows, _dicke_lines),
    "w-compare": (_w_compare_rows, _w_compare_lines),
    "halfdicke-scaling": (_halfdicke_rows, _halfdicke_lines),
}


def cmd_table(args) -> int:
    if args.max_n < 2 or args.max_n > 20:
        raise ValueError(f"--max-n must lie in [2, 20], got {args.max_n}")
    rows_of, lines_of = _TABLES[args.family]
    payload = {"family": args.family, "max_n": args.max_n, "rows": list(rows_of(args.max_n))}
    _report(args, "table", payload, lambda p: lines_of(p["rows"]))
    return 0


def cmd_sample(args) -> int:
    if args.shots < 0:
        raise ValueError(f"--shots must be nonnegative, got {args.shots}")
    state, _, config = _resolve_input(args)
    probs = outcome_distribution(state, config.n, config.d, config.coupling)
    rng = np.random.default_rng(args.seed)
    labels = [f"{m}\n" for m in range(args.ancilla_dim)]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for first in range(0, args.shots, _SAMPLE_BLOCK):
            draws = rng.choice(args.ancilla_dim, size=min(_SAMPLE_BLOCK, args.shots - first), p=probs)
            out.write("".join([labels[m] for m in draws.tolist()]))
    return 0


def _add_register_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--qubits", "-n", type=int, default=None, help="register size")
    sub.add_argument("--ancilla-dim", "-d", type=int, required=True, help="ancilla dimension")
    sub.add_argument(
        "--coupling", choices=[c.value for c in CouplingKind], default="phase"
    )
    sub.add_argument(
        "--input",
        default="plus",
        help="'plus' for |+>^n or a path to an amplitude file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qparity",
        description="simulate qudit-ancilla parity modules and solve for admissible drives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one module and report every heralded branch")
    _add_register_flags(sim)
    sim.add_argument("--json", action="store_true")
    sim.add_argument("--out", default=None, help="write the report to a file")
    sim.set_defaults(handler=cmd_simulate)

    slv = sub.add_parser("solve", help="decide feasibility of an eigenphase spec")
    slv.add_argument(
        "--phases",
        required=True,
        help="comma-separated eigenphases in radians, or roots:D",
    )
    slv.add_argument("--json", action="store_true")
    slv.add_argument("--out", default=None)
    slv.set_defaults(handler=cmd_solve)

    ver = sub.add_parser("verify", help="run a named self-check suite")
    ver.add_argument(
        "--suite",
        required=True,
        choices=sorted(verify.SUITES) + ["all"],
    )
    ver.add_argument("--out", default=None)
    ver.set_defaults(handler=cmd_verify)

    tab = sub.add_parser("table", help="print closed-form probability tables")
    tab.add_argument("--family", required=True, choices=sorted(_TABLES))
    tab.add_argument("--max-n", type=int, default=12)
    tab.add_argument("--json", action="store_true")
    tab.add_argument("--out", default=None)
    tab.set_defaults(handler=cmd_table)

    smp = sub.add_parser("sample", help="draw heralded outcomes from the module")
    _add_register_flags(smp)
    smp.add_argument("--shots", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", default=None)
    smp.set_defaults(handler=cmd_sample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory running {args.command!r}; use a smaller register", file=sys.stderr)
        return 3
    except _ProbabilitySumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
