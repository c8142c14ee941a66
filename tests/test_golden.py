"""Golden reports: the byte-stable promise checked across commits.

Every run of ``tests/golden/regen.py``'s run set (``hessian-analyze --n 8``,
``verify-all --seed 1729``, ``sobolev-demo --nu-max 64 --k-max 3``,
``ladder --ladder 64,256,1024 --k-max 3`` and ``hessian-analyze`` on the four
dense panel kinds at n = 64) runs again in a fresh process at
``OPENBLAS_NUM_THREADS=1``, and its report, CSV mirror, stdout and exit
code are compared with the committed ones. Reports are byte-stable only
per numpy, BLAS and CPU, so the comparison is byte for byte when this
environment matches ``tests/golden/environment.json``; otherwise every key,
string, integer, exit code and ``passed`` flag is compared exactly, and a
float only as a float. A change that moves a report byte regenerates the
files with ``python3 tests/golden/regen.py``, which prints what moved.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import scalehilbert

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "runs.json").read_text())
# a number with a fraction or an exponent, or a non-finite one, as a report,
# a CSV mirror or stdout writes it
FLOAT = re.compile(r"(?<![A-Za-z_])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)(?![A-Za-z_])")


def _load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()
EXACT = json.loads((GOLDEN / "environment.json").read_text()) == regen.environment()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    src = Path(scalehilbert.__file__).resolve().parents[1]
    return regen.run_all(tmp_path_factory.mktemp("golden"), src)


def shape(value):
    """A JSON value with every float replaced by a marker, keys in order."""
    if isinstance(value, dict):
        return [(key, shape(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [shape(item) for item in value]
    return "<float>" if isinstance(value, float) else value


def skeleton(file_name: str, data: bytes):
    if file_name.endswith(".json"):
        return shape(json.loads(data))
    return FLOAT.sub("<float>", data.decode())


def test_run_set_is_the_record(results):
    assert {name: result["argv"] for name, result in results.items()} == {
        name: run["argv"] for name, run in MANIFEST.items()}


def test_float_marker_reads_every_written_float():
    line = "defect 2.144e-16, tol 1.000e-08, -inf nan 0.5 1e+300 sizes [64, 256] 9/9 infinite"
    assert FLOAT.sub("#", line) == "defect #, tol #, # # # # sizes [64, 256] 9/9 infinite"


@pytest.mark.parametrize("name", MANIFEST)
def test_golden_run(results, name):
    result = results[name]
    assert result["exit_code"] == MANIFEST[name]["exit_code"], result["stderr"].decode()
    golden = {path.name: path.read_bytes() for path in GOLDEN.glob(f"{name}.*")}
    assert sorted(result["files"]) == sorted(golden)
    for file_name, data in result["files"].items():
        if EXACT:
            if file_name.endswith(".json"):
                moved = regen.moved_fields(json.loads(golden[file_name]), json.loads(data))
            else:
                moved = regen.moved_lines(golden[file_name], data)
            assert data == golden[file_name], (file_name, moved[:10])
        else:
            assert skeleton(file_name, data) == skeleton(file_name, golden[file_name]), file_name
