"""The three benchmark workloads as lists of operations on the program.

Each operation calls the program once through a public entry point:
``qparity.cli.main(argv)`` in-process with ``--out`` to a file under the
work directory, or the library API for the sweep.  ``run`` is what the
benchmark times; ``check`` runs afterwards, outside the timed region, and
returns the oracle's failure messages.  Import this module only after the
program's own import has been timed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from qparity import cli, linalg, module, solver

SAMPLE_SHOTS = 100_000
TABLE_MAX_N = 20


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def cli_op(name: str, argv: list[str], out: Path, check_text: Callable[[str], list[str]]) -> Op:
    argv = argv + ["--out", str(out)]

    def check(code) -> list[str]:
        return [f"exit code {code}"] if code != 0 else check_text(out.read_text())

    return Op(name, lambda: cli.main(argv), check)


def simulate_op(workdir: Path, argv: list[str], amps: np.ndarray, d: int, coupling: str, plus: bool) -> Op:
    n = amps.size.bit_length() - 1
    name = f"simulate n={n} d={d} {coupling}"
    out = workdir / (name.replace(" ", "_") + ".json")
    argv = ["simulate"] + argv + ["-d", str(d), "--coupling", coupling, "--json"]
    return cli_op(
        name, argv, out, lambda text: oracle.check_simulate_report(json.loads(text), amps, d, coupling, plus)
    )


def symmetric_large(seed: int, workdir: Path) -> list[Op]:
    """|+>^n inputs do not depend on the seed."""
    return [
        simulate_op(workdir, ["-n", str(n)], oracle.plus_amplitudes(n), d, coupling, plus=True)
        for n in (16, 18)
        for d in (3, 5, 7)
        for coupling in ("phase", "shift")
    ]


def random_large(seed: int, workdir: Path) -> list[Op]:
    """Reads the amplitude files that inputs.write_random_large_inputs wrote."""
    ops = []
    for n in inputs.RANDOM_LARGE_QUBITS:
        path = inputs.amplitude_file(workdir, n)
        amps = inputs.random_amplitudes(seed, n)
        for d in (3, 7):
            for coupling in ("phase", "shift"):
                ops.append(simulate_op(workdir, ["--input", str(path)], amps, d, coupling, plus=False))
        for coupling in ("phase", "shift"):
            probs = oracle.branch_probabilities(amps, 5, coupling)
            argv = ["sample", "--input", str(path), "-d", "5", "--coupling", coupling]
            argv += ["--shots", str(SAMPLE_SHOTS), "--seed", str(seed)]
            ops.append(
                cli_op(
                    f"sample n={n} d=5 {coupling}",
                    argv,
                    workdir / f"sample_n{n}_{coupling}.txt",
                    lambda text, probs=probs: oracle.check_sample(text, probs, SAMPLE_SHOTS),
                )
            )
    return ops


def _custom_ancilla(d: int, coupling: module.CouplingKind, theta: np.ndarray) -> linalg.Ket:
    """Solver-built ancilla whose orbit under Z_d (phase) or X_d (shift) is orthonormal."""
    if coupling is module.CouplingKind.PHASE:
        return solver.admissible_state(solver.roots_of_unity_spec(d), list(theta))
    _, basis, spec = solver.reconstruct_general(linalg.pauli_x(d))
    diagonal = solver.admissible_state(spec, list(theta))
    return linalg.Ket(basis.entries @ diagonal.amps, (d,), normalized=True)


def sweep_crosscheck(seed: int, workdir: Path) -> list[Op]:
    """Many small module runs, each checked against its config's projectors.

    Per (n, d, coupling) one op builds the projectors and the custom ancilla;
    then 10 random inputs run with the default and with the custom ancilla.
    """
    rng = np.random.default_rng([seed, 0])
    built: dict = {}
    ops = []
    tag = 0
    for n in range(2, 9):
        for d in range(2, 8):
            for coupling in module.CouplingKind:
                key = (n, d, coupling)
                theta = rng.uniform(0.0, 2.0 * math.pi, size=d)

                def build(key=key, theta=theta):
                    pset = module.build_projectors(*key)
                    built[key] = (pset, _custom_ancilla(key[1], key[2], theta))
                    return pset

                ops.append(
                    Op(
                        f"build n={n} d={d} {coupling.value}",
                        build,
                        lambda pset, n=n, d=d: oracle.check_projector_ranks(pset.dims, n, d),
                    )
                )
                for custom in (False, True):
                    for _ in range(10):
                        tag += 1
                        amps = inputs.random_amplitudes(seed, n, tag)
                        state = linalg.Ket(amps, (2,) * n, normalized=True)

                        def run(key=key, state=state, custom=custom):
                            prep = built[key][1] if custom else None
                            config = module.ModuleConfig(*key, ancilla_prep=prep)
                            return module.run_module(state, config, classify_states=False)

                        def check(records, key=key, amps=amps):
                            mats = [p.entries for p in built[key][0].projectors]
                            return oracle.check_module_records(records, amps, key[1], key[2].value, mats)

                        ancilla = "custom" if custom else "default"
                        ops.append(Op(f"run_module n={n} d={d} {coupling.value} {ancilla}", run, check))
    for coupling in module.CouplingKind:
        tag += 1
        amps = inputs.random_amplitudes(seed, 10, tag)
        state = linalg.Ket(amps, (2,) * 10, normalized=True)
        ops.append(
            Op(
                f"outcome_distribution n=10 d=3 {coupling.value}",
                lambda state=state, coupling=coupling: module.outcome_distribution(state, 10, 3, coupling),
                lambda probs, amps=amps, c=coupling.value: oracle.check_distribution(probs, amps, 3, c),
            )
        )
    ops.append(cli_op("verify all", ["verify", "--suite", "all"], workdir / "verify.txt", oracle.check_verify_output))
    for family in ("dicke", "w-compare", "halfdicke-scaling"):
        argv = ["table", "--family", family, "--max-n", str(TABLE_MAX_N), "--json"]
        ops.append(
            cli_op(
                f"table {family}",
                argv,
                workdir / f"table_{family}.json",
                lambda text, f=family: oracle.check_table(json.loads(text), f, TABLE_MAX_N),
            )
        )
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    return {
        "symmetric_large": symmetric_large,
        "random_large": random_large,
        "sweep_crosscheck": sweep_crosscheck,
    }[workload](seed, Path(workdir))
