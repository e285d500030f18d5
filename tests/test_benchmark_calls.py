"""The benchmark's calls into the program still run and pass its oracle.

``perfbench/tests`` is not collected with this suite (the two ``conftest.py``
files collide), so a change to the API that ``perfbench/workloads.py`` calls
would otherwise go unseen here.  This runs its n=2 sweep_crosscheck
operations and its n=16 symmetric_large ones, importing perfbench by path as
``perfbench/tests/conftest.py`` does.
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


def test_symmetric_large_calls_pass_the_oracle(monkeypatch, tmp_path):
    # At n=16 the phase kernel runs 7 to 15 blocks, so this checks its multi-block
    # path against the benchmark's own oracle, which imports no program code.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    ops = [op for op in workloads.symmetric_large(0, tmp_path) if " n=16 " in op.name]
    # d = 3, 5, 7 and both couplings.
    assert len(ops) == 6
    failures = [f"{op.name}: {message}" for op in ops for message in op.check(op.run())]
    assert failures == []
