"""Tests of the benchmark itself: span arithmetic, speed scaling, patching, oracle, workloads."""
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracle
import spans
import speed
import workloads
import worker
from qparity import cli, linalg, module, reports

REPO = Path(__file__).resolve().parents[2]


def test_self_time_is_duration_minus_direct_children():
    tree = [
        spans.Span("cli.main", 0.0, 10.0),
        spans.Span("module.run_module", 1.0, 4.0, parent=0),
        spans.Span("states.classify", 5.0, 9.0, parent=0),
        spans.Span("linalg.fidelity", 6.0, 7.0, parent=2),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    metrics = spans.pass_metrics(tree, pass_wall=12.0)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["states.classify.fidelity_evals"] == 1
    assert metrics["trace.uncovered_ratio"] == pytest.approx(2.0 / 12.0)


def test_speed_factor_uses_the_probes_around_an_op():
    track = speed.Track("sweep_crosscheck")
    track.times = [0.0, 0.1, 0.2, 5.0, 5.1]
    track.probes = [1.0, 2.0, 3.0, 10.0, 10.0]
    reference = track.probe.reference
    assert track.factor(0.05, 0.15) == reference / 2.0
    # A long op between two phases gets the nearest probe on each side.
    assert track.factor(1.0, 4.0) == reference / statistics.median([3.0, 10.0])


def _qparity_bindings():
    bound = {}
    for name, mod in sys.modules.items():
        if name == "qparity" or name.startswith("qparity."):
            bound.update({(name, attr): obj for attr, obj in vars(mod).items() if callable(obj)})
    for cls in (linalg.Ket, linalg.Operator):
        bound[(cls.__name__, "__init__")] = vars(cls)["__init__"]
    return bound


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    before = _qparity_bindings()
    run = worker.Run(
        [
            workloads.simulate_op(tmp_path, ["-n", "5"], oracle.plus_amplitudes(5), 3, "phase", plus=True),
            workloads.Op(
                "run_module",
                lambda: module.run_module(linalg.plus_state(4), module.ModuleConfig(4, 3)),
                lambda records: [],
            ),
        ]
    )
    tracer = spans.Tracer()
    run.timed_pass(tracer)
    run.timed_pass(spans.AllocProbe())
    after = _qparity_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert run.failures == []
    names = [s.name for s in tracer.spans]
    # run_module is reached through cli's own binding and through module's.
    assert names.count("module.run_module") == 2
    assert {"cli.main", "linalg.ket", "linalg.operator", "reports.with_checksum"} <= set(names)


def _simulate_report(tmp_path, d, coupling, extra):
    out = tmp_path / "report.json"
    argv = ["simulate", "-d", str(d), "--coupling", coupling, "--json", "--out", str(out)]
    assert cli.main(argv + extra) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("coupling", ["phase", "shift"])
def test_oracle_flags_corrupted_plus_report(tmp_path, coupling):
    amps = oracle.plus_amplitudes(6)
    payload = _simulate_report(tmp_path, 4, coupling, ["-n", "6"])
    assert oracle.check_simulate_report(payload, amps, 4, coupling, plus_input=True) == []
    assert oracle.checksum_ok(payload) == reports.verify_checksum(payload) is True

    branch = next(o for o in payload["outcomes"] if not o["zero_probability"])
    for field, value in [
        ("probability", "0.3"),
        ("probability_exact", "1/3"),
        ("dicke_coeffs", {"0": "1"}),
    ]:
        bad = json.loads(json.dumps(payload))
        next(o for o in bad["outcomes"] if o["parity"] == branch["parity"])[field] = value
        assert oracle.check_simulate_report(bad, amps, 4, coupling, plus_input=True)
        resealed = reports.with_checksum(bad)
        assert oracle.check_simulate_report(resealed, amps, 4, coupling, plus_input=True)
        assert oracle.checksum_ok(bad) == reports.verify_checksum(bad) is False


def test_oracle_flags_corrupted_random_report_and_samples(tmp_path):
    amps = inputs.random_amplitudes(3, 5)
    path = tmp_path / "state.amp"
    inputs.write_amplitude_file(path, amps)
    payload = _simulate_report(tmp_path, 3, "shift", ["--input", str(path)])
    assert oracle.check_simulate_report(payload, amps, 3, "shift", plus_input=False) == []
    bad = json.loads(json.dumps(payload))
    bad["outcomes"][0]["classification"] = "GHZ"
    assert oracle.check_simulate_report(reports.with_checksum(bad), amps, 3, "shift", plus_input=False)

    probs = oracle.branch_probabilities(amps, 3, "shift")
    fair = "".join(f"{k}\n" for k, p in enumerate(probs) for _ in range(round(p * 1000)))
    assert oracle.check_sample(fair, probs, len(fair.split())) == []
    assert oracle.check_sample("0\n" * 1000, probs, 1000)


def test_oracle_flags_corrupted_module_record():
    amps = inputs.random_amplitudes(5, 3)
    config = module.ModuleConfig(3, 3, module.CouplingKind.SHIFT)
    records = module.run_module(linalg.Ket(amps, (2,) * 3, normalized=True), config, classify_states=False)
    mats = [p.entries for p in module.build_projectors(3, 3, module.CouplingKind.SHIFT).projectors]
    assert oracle.check_module_records(records, amps, 3, "shift", mats) == []
    nudged = [dataclasses.replace(records[0], probability=records[0].probability + 1e-9)] + records[1:]
    assert oracle.check_module_records(nudged, amps, 3, "shift", mats)
    other = next(r for r in records if r.post_state is not None)
    swapped = [dataclasses.replace(r, post_state=linalg.plus_state(3)) if r is other else r for r in records]
    assert oracle.check_module_records(swapped, amps, 3, "shift", mats)


def test_walsh_hadamard_matches_dense_hadamard():
    amps = inputs.random_amplitudes(7, 4)
    h = linalg.tensor([linalg.hadamard()] * 4).entries
    assert np.allclose(oracle.walsh_hadamard(amps), h @ amps)


@pytest.mark.parametrize(
    "workload, pick",
    [
        ("symmetric_large", lambda ops: ops[:6]),
        ("random_large", lambda ops: ops[:6]),
        ("sweep_crosscheck", lambda ops: ops[: 21 * 12] + ops[-6:]),
    ],
)
def test_short_pass_has_no_failures(tmp_path, workload, pick):
    inputs.write_random_large_inputs(tmp_path, 11)
    run = worker.Run(pick(workloads.build(workload, 11, tmp_path)))
    run.timed_pass()
    assert run.attempted == len(run.ops)
    assert run.failures == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep_crosscheck", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
