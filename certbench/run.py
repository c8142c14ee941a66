"""Layered certificate benchmark for scalehilbert.

Run from the repository root:

    python3 certbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

``--workload`` is one of verify-suite, dense-operator, scale-ladders, or
``all``. The benchmark builds the workload's inputs from ``--seed`` in a
work directory under ``.bench_work/``, times fresh-process set-up
(median of five probes), then runs the workload in its own process as a
closed loop with one client, calling ``scalehilbert.cli.main``
in-process. Every report is checked. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import workloads  # noqa: E402  (needs the sys.path entry above)
from tracer import SEED_DENSE_OP_COUNTS  # noqa: E402

PROBES = 5
WORKLOAD_DEADLINE_S = 170.0


UNITS = {"kernels.work_n3": "n3", "process.tracing_overhead": "ratio", "process.cpu_s_per_op": "s"}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_dec", "dec")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment():
    build = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: build["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_child(args, deadline):
    """Run worker.py with ``args`` and return the JSON of its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, tmp):
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    workdir = tmp / name
    workdir.mkdir()
    panel_path = workdir / "panel.json"
    panel_path.write_text(json.dumps(workloads.build_panel(name, seed, str(workdir))))

    probe_argv = json.dumps([*workloads.PROBE_ARGV, "--output", str(workdir / "probe.json")])
    probes = [run_child(["probe", ROOT, probe_argv], deadline) for _ in range(PROBES)]
    if any(p["rc"] != 0 for p in probes):
        raise RuntimeError(f"set-up probe call exited with {[p['rc'] for p in probes]}")
    spans = WORK / f"spans-{name}-seed{seed}.jsonl"
    loop = run_child(["loop", ROOT, panel_path, seconds, int(trace), spans], deadline)

    import_s = statistics.median(p["import_s"] for p in probes)
    first_call_s = statistics.median(p["first_call_s"] for p in probes)
    setup_s = statistics.median(p["import_s"] + p["first_call_s"] for p in probes)
    share = f"{loop['failed']}/{loop['attempted']}"
    if trace:
        metrics = dict(loop["layers"], **{"setup.import_s": import_s, "setup.first_call_s": first_call_s})
        metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
        print(f"{name}: traced, fail_share {share}, spans in {spans.relative_to(ROOT)}")
        if name == "dense-operator":
            counts = loop["kernel_calls_per_op"]
            note = "matches" if counts == SEED_DENSE_OP_COUNTS else "differs from"
            print(f"{name}: kernel calls per op {counts} {note} the seed commit's {SEED_DENSE_OP_COUNTS}")
    else:
        samples = loop["samples"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdict_p50_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
        }
        print(
            f"{name}: setup_s {setup_s:.4f} s | verdict_p50_s {metrics['verdict_p50_s'][0]:.4f} s "
            f"({len(samples)} samples) | peak_rss_mb {loop['peak_rss_mb']:.1f} MB | "
            f"fail_share {share} = {loop['failed'] / loop['attempted']:.3f}"
        )
        print(f"{name}: seconds per op, in run order: {' '.join(f'{s:.3f}' for s in samples)}")
    for reason in loop["failures"]:
        print(f"{name}: failed op: {reason}")
    return loop["attempted"], loop["failed"], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scalehilbert" / "cli.py").is_file():
        print(f"error: no scalehilbert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("environment: " + json.dumps(environment()))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace, tmp)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
