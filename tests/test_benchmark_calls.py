"""The benchmark's calls into the program still run and pass its oracle.

``perfbench/tests`` is not collected with this suite (the two ``conftest.py``
files collide), so a change to the API that ``perfbench/workloads.py`` calls
would otherwise go unseen here.  This runs its n=2 sweep_crosscheck
operations, importing perfbench by path as ``perfbench/tests/conftest.py``
does.
"""
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_sweep_crosscheck_calls_pass_the_oracle(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    ops = [op for op in workloads.sweep_crosscheck(0, tmp_path) if " n=2 " in op.name]
    # One build and 10 default plus 10 custom-ancilla runs per d = 2..7 and coupling.
    assert len(ops) == 6 * 2 * 21
    failures = [f"{op.name}: {message}" for op in ops for message in op.check(op.run())]
    assert failures == []
