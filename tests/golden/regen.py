"""Golden reports: the run set, its runner, and its regeneration.

Each run is one ``scalehilbert`` command in a fresh process at
``OPENBLAS_NUM_THREADS=1``, in a working directory of its own, with its
report written to ``<name>.json`` there. What it leaves (the report, the
CSV mirror if any, stdout and the exit code) is the run's golden record:
``<name>.json``, ``<name>.csv`` and ``<name>.stdout`` in this directory,
and the exit code in ``runs.json`` with the run's arguments.
``environment.json`` records the numpy version and the BLAS name, version
and configuration (its core) from ``numpy.show_config(mode="dicts")``,
with the CPU's SIMD extensions; reports are byte-stable only within one
such environment.

The dense inputs are the four kinds of the benchmark's dense panel
(``certbench/workloads.py``, read and never changed) at n = 64, drawn as
the panel of seed 1 draws them.

Run from the repository root to rewrite every file from the tree's
``src/`` (or another tree's, with ``--src``)::

    python3 tests/golden/regen.py [--src DIR]

It prints each field that moved, as ``<file> <field>: old -> new``.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
DENSE_N, DENSE_SEED = 64, 1

RUNS = {
    "n8": ["--command", "hessian-analyze", "--n", "8"],
    "verify-1729": ["--command", "verify-all", "--seed", "1729"],
    "sobolev-64": ["--command", "sobolev-demo", "--nu-max", "64", "--k-max", "3"],
    "ladder-64-1024": ["--command", "ladder", "--ladder", "64,256,1024", "--k-max", "3"],
}


def _workloads():
    spec = importlib.util.spec_from_file_location("certbench_workloads", ROOT / "certbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs() -> dict:
    """{name: (argv, operator object to write as the input, or None)} of
    every golden run; the dense inputs are the four kinds of the panel."""
    table = {name: (argv, None) for name, argv in RUNS.items()}
    workloads = _workloads()
    rng = np.random.default_rng([DENSE_SEED, 512])
    for i, kind in enumerate(workloads.DENSE_KINDS):
        a, _, _ = workloads.dense_operator(kind, DENSE_N, rng)
        operator = {"n": DENSE_N, "kind": "dense", "matrix": a.tolist(), "scale": "graph_default"}
        table[f"dense{i}-{kind}"] = (["--command", "hessian-analyze", "--input", f"op{i}_{kind}.json"], operator)
    return table


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config.get("SIMD Extensions", {}).get("found"),
        "OPENBLAS_NUM_THREADS": "1",
    }


def run_one(name: str, argv: list, workdir: Path, src: Path, operator=None) -> dict:
    """One run in ``workdir``: its argv, {file name: bytes} of what it
    left, its exit code and its stderr."""
    workdir.mkdir(parents=True, exist_ok=True)
    if operator is not None:
        (workdir / argv[-1]).write_text(json.dumps(operator))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "scalehilbert.cli", *argv, "--output", f"{name}.json"],
                          cwd=workdir, env=env, capture_output=True)
    files = {f"{name}.stdout": done.stdout}
    for suffix in (".json", ".csv"):
        if (workdir / f"{name}{suffix}").exists():
            files[f"{name}{suffix}"] = (workdir / f"{name}{suffix}").read_bytes()
    return {"argv": argv, "files": files, "exit_code": done.returncode, "stderr": done.stderr}


def run_all(workdir: Path, src: Path) -> dict:
    """{name: run_one(...)} of every golden run, at most four at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {name: pool.submit(run_one, name, argv, workdir / name, src, operator)
                   for name, (argv, operator) in runs().items()}
        return {name: future.result() for name, future in futures.items()}


def moved_fields(old, new, path=""):
    """(path, old, new) of every leaf of two JSON values that differs."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for key in old for m in moved_fields(old[key], new[key], f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in moved_fields(a, b, f"{path}[{i}]")]
    return [] if old == new and type(old) is type(new) else [(path, old, new)]


def moved_lines(old: bytes, new: bytes):
    """(line number, old, new) of every line of two texts that differs."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    if len(a) != len(b):
        return [("lines", len(a), len(b))]
    return [(f"line {i + 1}", x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp), args.src.resolve())
    manifest_path, env_path = GOLDEN / "runs.json", GOLDEN / "environment.json"
    old_manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    manifest = {}
    for name, result in results.items():
        manifest[name] = {"argv": result["argv"], "exit_code": result["exit_code"]}
        old_code = old_manifest.get(name, {}).get("exit_code", result["exit_code"])
        if old_code != result["exit_code"]:
            print(f"runs.json {name}.exit_code: {old_code} -> {result['exit_code']}")
        for suffix in (".json", ".csv", ".stdout"):
            target, data = GOLDEN / f"{name}{suffix}", result["files"].get(f"{name}{suffix}")
            old = target.read_bytes() if target.exists() else None
            if old is not None and data is None:
                print(f"{target.name}: removed")
                target.unlink()
            elif old != data:
                if old is not None:
                    moved = moved_fields(json.loads(old), json.loads(data)) if suffix == ".json" else moved_lines(old, data)
                    for field, was, now in moved:
                        print(f"{target.name} {field}: {was!r} -> {now!r}")
                target.write_bytes(data)
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    env = environment()
    if env_path.exists() and json.loads(env_path.read_text()) != env:
        print(f"environment.json: {json.dumps(json.loads(env_path.read_text()))} -> {json.dumps(env)}")
    env_path.write_text(json.dumps(env, indent=1) + "\n")


if __name__ == "__main__":
    main()
