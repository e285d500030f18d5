"""qparity benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a qparity checkout:

    python3 perfbench/run.py --workload symmetric_large --seed 1 --seconds 30 --trace 0

The workloads, metrics and bounds are declared in BENCHMARK.json at the
root.  ``--trace 0`` reports the end-to-end metrics, measured with tracing
off and scaled by the host's speed as speed.py explains; ``--trace 1``
reports the per-layer metrics from a separate traced run.
Every run also regenerates the 11 golden reports and compares their digest.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
means every output was correct, 1 that a check failed, 2 a usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

import inputs
import spans

WORKLOADS = ("symmetric_large", "random_large", "sweep_crosscheck")
# sha256 of the 11 golden reports, concatenated in sorted filename order.
GOLDEN_SHA256 = "a765cbed92f8955c3b70cef012f0f4d7ea026abe85069fcdc3fe6d1d7ec0c0f3"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# The environment of every process the benchmark starts.  One closed-loop
# client in one process: BLAS gets one thread too, so that runs on a shared
# machine do not depend on how many cores are idle.  glibc keeps freed memory
# (blocks up to 32 MiB, its largest mmap threshold) in the heap instead of
# handing it back to the kernel: in a virtual machine the page faults of
# fresh memory made pass times vary by 20% from run to run.
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296",
}

# Layer-map predictions the traced run checks; each sees the per-layer
# metrics and the functions ranked by self time.
PREDICTIONS = {
    "symmetric_large": [
        (
            "states has the largest layer self time",
            lambda m, top: max(spans.LAYERS, key=lambda layer: m[f"{layer}.self_s"]) == "states",
        ),
        ("module.build_projectors is absent", lambda m, top: m["module.build_projectors.calls"] == 0),
    ],
    "random_large": [
        ("module.build_projectors is absent", lambda m, top: m["module.build_projectors.calls"] == 0),
    ],
    "sweep_crosscheck": [
        (
            "linalg.operator and module.run_module lead the function self times",
            lambda m, top: {name for name, _ in top[:2]} == {"linalg.operator", "module.run_module"},
        ),
    ],
}


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **BENCH_ENV)


def environment(root: Path) -> dict:
    """What a result depends on besides the code, printed with every run."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas['name']} {blas['version']}",
        "env": BENCH_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
    }


def golden_digest(root: Path, workdir: Path, env: dict) -> str:
    """A script that fails leaves reports out, which changes the digest."""
    out = workdir / "golden"
    out.mkdir()
    for script in ("run_examples.py", "make_tables.py"):
        cmd = [sys.executable, str(root / "scripts" / script), "--json", "--out-dir", str(out)]
        subprocess.run(cmd, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_times(env: dict) -> tuple[float, float]:
    """Cumulative import time of qparity.cli and of qparity.solver, in s."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import qparity.cli"]
    proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative["qparity.cli"], cumulative["qparity.solver"]


def run_worker(args, workdir: Path, env: dict, setup_only: bool) -> dict:
    result = workdir / "worker.json"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py"))]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    subprocess.run(cmd, env=env, check=True, timeout=args.seconds + CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def measure(args, root: Path, workdir: Path, declared: dict) -> int:
    env = child_env(root)
    print("environment " + json.dumps(environment(root)))
    digest = golden_digest(root, workdir, env)
    print(f"golden digest {digest} {'matches' if digest == GOLDEN_SHA256 else 'DIFFERS FROM'} the recorded one")
    if args.workload == "random_large":
        inputs.write_random_large_inputs(workdir, args.seed)
    extra = [] if args.trace else [run_worker(args, workdir, env, True) for _ in range(SETUP_SAMPLES - 1)]
    measured = run_worker(args, workdir, env, False)
    workers = extra + [measured]
    attempted = 1 + sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    failed = len(failures) + (digest != GOLDEN_SHA256)
    for msg in failures[:10]:
        print(f"FAILED {msg}")

    passes = len(measured["walls"])
    rows = []  # (name, value, unit, samples)
    if args.trace:
        imports = [import_times(env) for _ in range(IMPORT_SAMPLES)]
        values = dict(measured["layers"])
        values["import.total_s"] = statistics.median(t for t, _ in imports)
        values["import.solver_s"] = statistics.median(s for _, s in imports)
        for item in declared["per_layer"]:
            name = item["name"]
            if name.startswith("import."):
                samples = f"median of {IMPORT_SAMPLES} processes"
            elif name.endswith("peak_alloc_mb"):
                samples = "1 allocation pass"
            else:
                samples = f"median of {passes} traced passes"
            rows.append((name, values[name], item["unit"], samples))
        top = measured["top_functions"]
        print("functions by self time: " + ", ".join(f"{n} {t:.3f}s" for n, t in top))
        for text, holds in PREDICTIONS[args.workload]:
            print(f"prediction {'held' if holds(values, top) else 'FAILED'}: {text}")
    else:
        lat = measured["scaled_ms"]
        ops_per_pass = len(lat) // passes
        # Latency of each op as the median over the run's passes, so that the
        # median over ops rests on every pass and not on one extreme repeat.
        per_op = [statistics.median(lat[i::ops_per_pass]) for i in range(ops_per_pass)]
        pass_sums = [sum(lat[p * ops_per_pass : (p + 1) * ops_per_pass]) / 1e3 for p in range(passes)]
        values = {
            "setup_s": statistics.median(w["setup_scaled_s"] for w in workers),
            "wall_s": statistics.median(pass_sums),
            "op_p50_ms": statistics.median(per_op),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        samples = {
            "setup_s": f"median of {len(workers)} fresh processes, scaled",
            "wall_s": f"median of {passes} passes, scaled",
            "op_p50_ms": f"median over {ops_per_pass} ops of their median over {passes} passes, scaled",
            "peak_rss_mb": "1 process",
        }
        for item in declared["end_to_end"]:
            rows.append((item["name"], values[item["name"]], item["unit"], samples[item["name"]]))
        # A tail percentile needs at least ten samples beyond it.
        if len(lat) >= 1000:
            rows.append(("op_p99_ms", statistics.quantiles(lat, n=100)[98], "ms", f"{len(lat)} ops, scaled"))
        # The unscaled figures and the probes, for reading a run by hand.
        raw = measured["latencies_ms"]
        raw_per_op = [statistics.median(raw[i::ops_per_pass]) for i in range(ops_per_pass)]
        probes = measured["probe_ms"]
        rows += [
            ("raw.setup_s", statistics.median(w["setup_s"] for w in workers), "s", "unscaled"),
            ("raw.wall_s", statistics.median(measured["walls"]), "s", "unscaled, probes included"),
            ("raw.op_p50_ms", statistics.median(raw_per_op), "ms", "unscaled"),
            ("speed.setup_probe_ms", statistics.median(w["setup_probe_ms"] for w in workers), "ms", "after set-up"),
            ("speed.probe_ms", statistics.median(probes), "ms", f"median of {len(probes)} probes"),
        ]
    rows.append(("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} ops"))
    for name, value, unit, samples in rows:
        print(f"{args.workload:<17} {name:<36} {value:>14.6g} {unit:<6} ({samples})")

    names = {item["name"] for item in declared["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qparity" / "__init__.py").is_file():
        print(f"error: {root} is not a qparity checkout (no src/qparity)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return measure(args, root, workdir, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
