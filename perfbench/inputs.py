"""Seeded inputs for the benchmark workloads.

Only numpy and the standard library are used here, so that run.py can
write input files without importing the program under test.  The same
``(seed, ...)`` always gives the same inputs.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

# Register sizes of the random states that random_large writes as files.
RANDOM_LARGE_QUBITS = (16, 17)


def random_amplitudes(seed: int, n: int, tag: int = 0) -> np.ndarray:
    """Normalised complex-Gaussian amplitude vector over n qubits."""
    rng = np.random.default_rng([seed, n, tag])
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def amplitude_file(workdir: Path, n: int) -> Path:
    return Path(workdir) / f"random_n{n}.amp"


def write_amplitude_file(path: Path, amps: np.ndarray) -> None:
    """Write the program's plain-text amplitude format: a dims header, then
    one ``re im`` pair per line, with round-trip float formatting."""
    n = amps.size.bit_length() - 1
    lines = ["dims: " + " ".join(["2"] * n)]
    lines += [f"{float(a.real)!r} {float(a.imag)!r}" for a in amps]
    Path(path).write_text("\n".join(lines) + "\n")


def write_random_large_inputs(workdir: Path, seed: int) -> None:
    for n in RANDOM_LARGE_QUBITS:
        write_amplitude_file(amplitude_file(workdir, n), random_amplitudes(seed, n))
