"""One benchmark process, started by run.py; prints one JSON line.

    worker.py probe ROOT ARGV_JSON
        Set-up time of a fresh process: import ``scalehilbert.cli`` and
        make one tiny call. Only the standard library is loaded before
        the clock starts.
    worker.py loop ROOT PANEL_JSON SECONDS TRACE SPANS_PATH
        Closed loop, one client: a warm-up operation, then whole panels
        of operations until the next panel would pass the time budget.
        With TRACE 1 the budget is split between an untraced and a
        traced half, and the spans are written to SPANS_PATH.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


def _import_cli(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from scalehilbert import cli

    return cli


def probe(root, argv):
    start = time.perf_counter()
    cli = _import_cli(root)
    imported = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return {"import_s": imported - start, "first_call_s": time.perf_counter() - imported, "rc": rc}


def time_op(main, op):
    """Seconds from the first call until the last report is written, and
    each call's exit code (or the exception it raised)."""
    for call in op:
        with contextlib.suppress(FileNotFoundError):
            os.remove(call["report"])
    outcomes = []
    start = time.perf_counter()
    for call in op:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcomes.append(main(list(call["argv"])))
        except SystemExit as exc:
            outcomes.append(exc.code)
        except Exception as exc:  # an operation that raises is a failed operation
            outcomes.append(exc)
    return time.perf_counter() - start, outcomes


class Runner:
    """Runs and checks operations; keeps the failure reasons and margins."""

    def __init__(self, main, panel):
        import workloads  # numpy: kept out of the set-up probe's imports

        self.workloads = workloads
        self.main = main
        self.panel = panel
        self.attempted = 0
        self.failures = []
        self.margins = []

    def check(self, op, outcomes):
        for call, rc in zip(op, outcomes):
            if isinstance(rc, Exception):
                return f"raised {rc!r}"
            try:
                with open(call["report"]) as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = None
            reason = self.workloads.check_call(call["check"], rc, report)
            if reason:
                return reason
            self.margins += self.workloads.margins(report)
        return None

    def run_op(self, op):
        seconds, outcomes = time_op(self.main, op)
        self.attempted += 1
        reason = self.check(op, outcomes)
        if reason:
            self.failures.append(reason)
        return seconds

    def run_panels(self, budget, tracer=None):
        samples = []
        start = time.perf_counter()
        while True:
            panel_start = time.perf_counter()
            for op in self.panel:
                if tracer is not None:
                    tracer.op += 1
                samples.append(self.run_op(op))
            now = time.perf_counter()
            if now - start + (now - panel_start) > budget:
                return samples


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def loop(root, panel_path, seconds, trace, spans_path):
    cli = _import_cli(root)
    with open(panel_path) as fh:
        panel = json.load(fh)
    runner = Runner(lambda argv: cli.main(argv), panel)  # look main up per call, so tracing sees it
    runner.run_op(panel[0])  # warm-up: lazy imports and first-call set-up finish here
    result = {}
    if not trace:
        result["samples"] = runner.run_panels(seconds)
    else:
        from tracer import SEED_DENSE_OP_COUNTS, Tracer, layer_metrics

        cpu = _cpu_s()
        untraced = runner.run_panels(seconds / 2)
        cpu = _cpu_s() - cpu
        tracer = Tracer()
        with tracer.installed():
            traced = runner.run_panels(seconds / 2, tracer)
        tracer.write(spans_path)
        layers = layer_metrics(tracer, len(traced))
        layers["hessian.min_margin_dec"] = min(runner.margins) if runner.margins else 0.0
        layers["process.cpu_s_per_op"] = cpu / len(untraced)
        layers["process.tracing_overhead"] = statistics.median(traced) / statistics.median(untraced)
        result["layers"] = layers
        result["kernel_calls_per_op"] = {k: layers[f"kernels.{k}.calls"] for k in SEED_DENSE_OP_COUNTS}
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main(argv):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if argv[0] == "probe":
        result = probe(argv[1], json.loads(argv[2]))
    elif argv[0] == "loop":
        result = loop(argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
