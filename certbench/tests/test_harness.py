"""Tests of the benchmark harness itself (not collected by the tier-1 suite).

    PYTHONPATH=src python3 -m pytest certbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy.linalg  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

from scalehilbert import cli, hessian, verify  # noqa: E402

SMALL_N = 48


@pytest.fixture()
def dense_panel(tmp_path):
    return workloads.build_panel("dense-operator", 7, str(tmp_path), dense_n=SMALL_N)


def _rewrite_report(path, edit):
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def test_panels_are_seeded(tmp_path):
    a = workloads.build_panel("verify-suite", 3, str(tmp_path / "a"))
    b = workloads.build_panel("verify-suite", 3, str(tmp_path / "a"))
    assert a == b
    assert sorted(op[0]["check"]["seed"] for op in a) == sorted(workloads.VERIFY_PANEL)
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    x = workloads.build_panel("dense-operator", 5, str(tmp_path / "x"), dense_n=8)
    y = workloads.build_panel("dense-operator", 5, str(tmp_path / "y"), dense_n=8)
    assert [op[0]["check"] for op in x] == [op[0]["check"] for op in y]


@pytest.mark.parametrize("kind", ["goe", "rank_deficient", "clustered"])
def test_dense_operator_spectrum(kind):
    a, gammas, ker_dim = workloads.dense_operator(kind, 64, np.random.default_rng(1))
    assert np.array_equal(a, a.T)
    assert np.allclose(np.linalg.eigvalsh(a), gammas, atol=1e-12)
    assert (ker_dim > 0) == (kind == "rank_deficient")


def test_real_reports_pass(dense_panel):
    runner = Runner(cli.main, dense_panel)
    for op in dense_panel:
        runner.run_op(op)
    assert runner.failures == []
    assert runner.attempted == len(dense_panel)
    assert runner.margins and min(runner.margins) > 0


def test_wrong_exit_code_is_a_failure(dense_panel):
    runner = Runner(lambda argv: cli.main(argv) or 1, dense_panel)
    runner.run_op(dense_panel[0])
    assert runner.failures == ["exit code 1"]


def test_raising_or_exiting_op_is_a_failure(dense_panel):
    def raises(argv):
        raise ArithmeticError("boom")

    runner = Runner(raises, dense_panel)
    runner.run_op(dense_panel[0])
    runner.main = lambda argv: cli.main(["--command", "no-such-command"])  # argparse exits 2
    runner.run_op(dense_panel[0])
    assert runner.failures[0].startswith("raised ArithmeticError")
    assert runner.failures[1] == "exit code 2"
    assert runner.attempted == 2


def test_missing_report_is_a_failure(dense_panel):
    runner = Runner(lambda argv: 0, dense_panel)
    runner.run_op(dense_panel[0])
    assert runner.failures == ["no report written"]


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda r: r["certificates"][3].update(passed=False), "certificates failed"),
        (lambda r: r.update(passed=False), "certificates failed"),
        (lambda r: r["certificates"].pop(), "not the expected eleven"),
        (lambda r: r["gammas"].__setitem__(0, r["gammas"][0] + 1e-6), "eigenvalues differ"),
        (lambda r: r["kernel"].update(ker_dim=r["kernel"]["ker_dim"] + 1), "kernel dimension"),
    ],
)
def test_wrong_dense_verdict_is_a_failure(dense_panel, edit, reason):
    call = dense_panel[0][0]

    def main(argv):
        rc = cli.main(argv)
        _rewrite_report(call["report"], edit)
        return rc

    runner = Runner(main, dense_panel)
    runner.run_op(dense_panel[0])
    assert len(runner.failures) == 1 and reason in runner.failures[0]


def _verify_report(seed, passed=(True,) * 9):
    return {
        "seed": seed,
        "passed": all(passed),
        "criteria": [{"number": i + 1, "passed": p, "defect": 1e-12, "tol": 1e-8} for i, p in enumerate(passed)],
    }


def test_verify_check():
    spec = {"kind": "verify", "seed": 4}
    assert workloads.check_call(spec, 0, _verify_report(4)) is None
    assert workloads.check_call(spec, 1, _verify_report(4)) == "exit code 1"
    assert "criteria failed" in workloads.check_call(spec, 0, _verify_report(4, (True,) * 8 + (False,)))
    assert "seed" in workloads.check_call(spec, 0, _verify_report(5))
    assert "1..9" in workloads.check_call(spec, 0, _verify_report(4, (True,) * 8))


def test_ladder_checks(tmp_path):
    sobolev, ladder = workloads.build_panel("scale-ladders", 1, str(tmp_path))[0]
    sobolev["argv"][sobolev["argv"].index("--nu-max") + 1] = "64"
    sobolev["check"]["nu_max"] = 64
    runner = Runner(cli.main, [[sobolev, ladder]])
    runner.run_op([sobolev, ladder])
    assert runner.failures == []
    _rewrite_report(ladder["report"], lambda r: r["sizes"].pop())
    with open(ladder["report"]) as fh:
        assert "ladder sizes" in workloads.check_call(ladder["check"], 0, json.load(fh))
    _rewrite_report(sobolev["report"], lambda r: r["rows"][5].update(closed_form=1.5))
    with open(sobolev["report"]) as fh:
        assert "closed form wrong" in workloads.check_call(sobolev["check"], 0, json.load(fh))


def _trace_panel(panel):
    t = tracer.Tracer()
    runner = Runner(lambda argv: cli.main(argv), panel)
    with t.installed():
        for op in panel:
            t.op += 1
            runner.run_op(op)
    assert runner.failures == []
    return tracer.layer_metrics(t, len(panel)), t


def test_tracer_patches_every_binding_and_restores():
    originals = (hessian.resolvent, numpy.linalg.svd, cli._DISPATCH["hessian-analyze"])
    assert cli.resolvent is hessian.resolvent is verify.resolvent
    with tracer.Tracer().installed():
        wrapped = hessian.resolvent
        assert wrapped is not originals[0]
        assert cli.resolvent is wrapped and verify.resolvent is wrapped
        assert numpy.linalg.svd is not originals[1]
        assert cli._DISPATCH["hessian-analyze"] is not originals[2]
    assert (hessian.resolvent, numpy.linalg.svd, cli._DISPATCH["hessian-analyze"]) == originals
    assert cli.resolvent is hessian.resolvent is verify.resolvent


def test_tracer_self_check_counts(dense_panel):
    """Every corpus kind makes the seed commit's kernel calls per hessian-analyze op."""
    for op in dense_panel[:3]:
        metrics, _ = _trace_panel([op])
        counts = {k: metrics[f"kernels.{k}.calls"] for k in tracer.SEED_DENSE_OP_COUNTS}
        assert counts == tracer.SEED_DENSE_OP_COUNTS
        assert metrics["kernels.eig.per_operator"] == 4
        assert metrics["cli.parse_s"] > 0 and metrics["cli.self_s"] > 0


def test_counts_repeat_exactly(dense_panel):
    first, _ = _trace_panel(dense_panel)
    second, spans = _trace_panel(dense_panel)
    counted = [k for k in first if k.endswith((".calls", ".per_operator")) or k == "kernels.work_n3"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    ops = {s[4] for s in spans.spans}
    assert ops == set(range(1, len(dense_panel) + 1))


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = t.stats()
    assert stats["inner"][0] == 3
    assert stats["outer"][2] == pytest.approx(stats["outer"][1] - stats["inner"][1])


def test_benchmark_json_lists_the_emitted_metrics(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sobolev, ladder = workloads.build_panel("scale-ladders", 1, str(tmp_path))[0]
    sobolev["argv"][sobolev["argv"].index("--nu-max") + 1] = "32"
    sobolev["check"]["nu_max"] = 32
    metrics, _ = _trace_panel([[sobolev, ladder]])
    emitted = set(metrics) | {
        "hessian.min_margin_dec", "process.cpu_s_per_op", "process.tracing_overhead",
        "setup.import_s", "setup.first_call_s",
    }
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "verdict_p50_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
