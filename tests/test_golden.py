"""The golden reports: the 11 JSON files of the two batch scripts, pinned by one digest.

Every physical number in them is exact or closed-form, but each branch also
prints the rounding-level ``residual`` of its Dicke decomposition, so a
change to the order of the simulation arithmetic shows up here as well.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SHA256 = "a765cbed92f8955c3b70cef012f0f4d7ea026abe85069fcdc3fe6d1d7ec0c0f3"


def test_golden_reports_digest(tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for script in ("run_examples.py", "make_tables.py"):
        cmd = [sys.executable, str(ROOT / "scripts" / script), "--json", "--out-dir", str(tmp_path)]
        subprocess.run(cmd, env=env, capture_output=True, check=True)
    reports = sorted(tmp_path.iterdir(), key=lambda p: p.name)
    assert len(reports) == 11
    digest = hashlib.sha256()
    for path in reports:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_benchmark_pins_the_same_digest():
    # perfbench/run.py checks every benchmark run against its own copy of the digest;
    # a re-record must update both pins.
    bench = (ROOT / "perfbench" / "run.py").read_text()
    pinned = re.findall(r'^GOLDEN_SHA256 = "([0-9a-f]{64})"$', bench, re.MULTILINE)
    assert pinned == [GOLDEN_SHA256]
