"""One workload in one fresh process; run.py starts it and reads its result.

The process first times its own set-up: ``import qparity.cli`` plus one
untimed warm-up op.  Then, closed loop with one client, it runs whole passes
over the workload's op list until the time budget is spent, timing the speed
probe of speed.py between ops and scaling each latency by it.  With
``--trace 1`` it alternates untraced and traced passes, probes nothing, and
ends with one allocation pass.  Every op's output is checked after its pass,
outside the timed region.  The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_PROBES = 9


def run_pass(ops, track=None) -> tuple[float, list]:
    """Runs the ops in order; with a speed track, probes between them."""
    results = []
    start = time.perf_counter()
    for op in ops:
        if track is not None:
            track.sample()
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((t, time.perf_counter() - t, out, err))
    if track is not None:
        track.sample(force=True)
    return time.perf_counter() - start, results


def check_pass(ops, results) -> list[str]:
    """One message per failed op."""
    failures = []
    for op, (_, _, out, err) in zip(ops, results):
        if err is None:
            try:
                msgs = op.check(out)
            except Exception as exc:  # unreadable output is a failed op
                msgs = [f"check raised {type(exc).__name__}: {exc}"]
            err = "; ".join(msgs[:3]) if msgs else None
        if err is not None:
            failures.append(f"{op.name}: {err}")
    return failures


class Run:
    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []

    def timed_pass(self, tracer=None, track=None) -> tuple[float, list[float], list[float]]:
        """Wall time, op latencies and, with a speed track, scaled latencies."""
        if tracer is not None:
            tracer.install()
        try:
            wall, results = run_pass(self.ops, track)
        finally:
            if tracer is not None:
                tracer.restore()
        self.attempted += len(results)
        self.failures += check_pass(self.ops, results)
        latencies = [r[1] for r in results]
        scaled = [] if track is None else [dur * track.factor(t, t + dur) for t, dur, _, _ in results]
        return wall, latencies, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import qparity.cli

    import_s = time.perf_counter() - t0
    if src not in Path(qparity.cli.__file__).resolve().parents:
        raise SystemExit(f"qparity was imported from {qparity.cli.__file__}, not from {src}")

    import spans
    import speed
    import workloads

    run = Run(workloads.build(args.workload, args.seed, Path(args.workdir)))
    t1 = time.perf_counter()
    _, warm = run_pass(run.ops[:1])
    setup_s = import_s + time.perf_counter() - t1
    run.attempted += 1
    run.failures += check_pass(run.ops[:1], warm)
    # Set-up ran just now, so probes right after it give its speed.
    track = speed.Track(args.workload)
    setup_probe = statistics.median(track.probe() for _ in range(SETUP_PROBES))
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * track.probe.reference / setup_probe,
        "setup_probe_ms": setup_probe * 1e3,
    }

    if not args.setup_only:
        walls, latencies, scaled, traced_walls, traced = [], [], [], [], []
        begin = time.perf_counter()
        while True:
            lap = time.perf_counter()
            # The traced run probes no speed: its passes are compared with
            # each other, and probes would count as time no span covers.
            wall, lat, lat_scaled = run.timed_pass(track=None if args.trace else track)
            walls.append(wall)
            latencies += lat
            scaled += lat_scaled
            if args.trace:
                tracer = spans.Tracer()
                wall, _, _ = run.timed_pass(tracer)
                traced_walls.append(wall)
                traced.append(tracer)
            # Start another pass only if at least half of one fits in the budget.
            if args.seconds - (time.perf_counter() - begin) < 0.5 * (time.perf_counter() - lap):
                break
        result.update(
            walls=walls,
            latencies_ms=[t * 1e3 for t in latencies],
            scaled_ms=[t * 1e3 for t in scaled],
            probe_ms=[t * 1e3 for t in track.probes],
        )
        if args.trace:
            per_pass = [spans.pass_metrics(t.spans, w) for t, w in zip(traced, traced_walls)]
            layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            layers["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
            probe = spans.AllocProbe()
            run.timed_pass(probe)
            for name in ("module.run_module", "module.build_projectors"):
                layers[f"{name}.peak_alloc_mb"] = probe.peak[name] / 1e6
            result.update(layers=layers, top_functions=spans.top_functions(traced[-1].spans))

    result.update(
        attempted=run.attempted,
        failures=run.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
