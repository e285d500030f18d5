#!/usr/bin/env python3
"""Reproduce the headline module runs in one go.

Runs the (n, d) combinations whose heralded branches are the named
entangled families — (3,3) for GHZ/W, (4,3)/(5,3)/(5,4) for the Dicke
mixtures, and (n, n-2) for the two-component sums — and prints each
branch table.  Pass --json to emit canonical JSON payloads instead, and
--out-dir to write one file per run.
"""
import argparse
import sys
from pathlib import Path

from qparity.cli import main as qparity_main

RUNS = [
    (3, 3),
    (4, 3),
    (5, 3),
    (5, 4),
    (6, 4),
    (7, 5),
    (8, 6),
    (9, 7),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="canonical JSON per run")
    parser.add_argument("--out-dir", default=None, help="write reports here instead of stdout")
    args = parser.parse_args()
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    worst = 0
    for n, d in RUNS:
        argv = ["simulate", "-n", str(n), "-d", str(d)]
        if args.json:
            argv.append("--json")
        if args.out_dir:
            suffix = "json" if args.json else "txt"
            argv += ["--out", str(Path(args.out_dir) / f"module_n{n}_d{d}.{suffix}")]
        else:
            print(f"== module n={n}, d={d} ==")
        code = qparity_main(argv)
        worst = max(worst, code)
        if not args.out_dir:
            print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
