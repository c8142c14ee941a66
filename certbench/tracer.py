"""Runtime tracer for the per-layer metrics.

The tracer wraps, from outside the package, the public functions of
every ``scalehilbert`` module and the numpy/scipy kernels they call.
Modules import functions by name (``cli``, ``verify`` and ``hessian``
all hold their own ``resolvent`` binding), so every module-level
binding of a traced function is replaced, and restored on exit.

Each call records a span ``[name, start, end, parent, op]`` in memory;
:meth:`Tracer.write` saves them as JSON lines at the end of a run. A
span's self time is its duration minus the durations of its direct
child spans. :func:`layer_metrics` turns spans and counters into the
per-layer metrics, per traced operation.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("cli", "verify", "hessian", "linalg", "sobolev_circle", "spaces", "weights")
# private helpers traced as well, because a layer metric names them
PRIVATE = {
    "cli": ("_load_operator", "_write_json", "_write_csv", "_ladder_side_logs"),
    "sobolev_circle": ("_log_closed_form_diag",),
}
CONSTRUCTORS = {"spaces": ("TruncatedScaleSpace",)}

# kernel name -> (namespace module, attribute, counts toward work_n3)
KERNELS = {
    "eig": ("numpy.linalg", "eig", True),
    "eigh": ("numpy.linalg", "eigh", True),
    "scipy_eigh": ("scipy.linalg", "eigh", True),
    "svd": ("numpy.linalg", "svd", True),
    "solve": ("numpy.linalg", "solve", True),
    "cholesky": ("scipy.linalg", "cholesky", True),
    "qr": ("numpy.linalg", "qr", True),
    "subspace_angles": ("scipy.linalg", "subspace_angles", False),
    "linear_sum_assignment": ("scipy.optimize", "linear_sum_assignment", False),
    "norm": ("numpy.linalg", "norm", False),
}

HESSIAN_FUNCTIONS = (
    "check_kernel_cokernel",
    "resolvent",
    "normality_defect",
    "spectral_decompose",
    "resolvent_consistency",
    "build_fractal_structure",
    "restriction_invariance",
    "pair_isometry_certificate",
    "graph_equivalence_constants",
    "regularity_constant",
    "graph_ladder",
    "fractal_weight",
    "operator_from_json",
)
CLI_PARSE = ("cli._load_operator",)
CLI_WRITE = ("cli._write_json", "cli._write_csv")

# the kernel calls of one seed-commit hessian-analyze run (any n, any corpus kind)
SEED_DENSE_OP_COUNTS = {
    "eig": 4, "svd": 7, "solve": 7, "eigh": 4, "scipy_eigh": 2, "cholesky": 7, "linear_sum_assignment": 4,
}


def _n3(a):
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return m * n * min(m, n)


def _measure_work(counters, args, kwargs):
    if args:
        counters["work_n3"] += _n3(args[0])


def _measure_report(counters, args, kwargs):
    counters["report_bytes"] += os.path.getsize(args[0])


def _measure_batch(counters, args, kwargs):
    counters["operators_analyzed"] += len(args[0])


def _measure_quad_table(counters, args, kwargs):
    """Bytes of one derivative table, nu_max x q doubles, with the seed's default q."""
    bound = dict(zip(("nu_max", "k", "q"), args), **kwargs)
    nu_max, k = bound["nu_max"], bound["k"]
    q = bound.get("q") or max(64, 4 * (nu_max // 2) * (k + 1))
    counters["quad_table_bytes"] = max(counters["quad_table_bytes"], nu_max * q * 8)


MEASURES = {
    "cli._write_json": _measure_report,
    "cli._write_csv": _measure_report,
    "verify.analyze_operator_batch": _measure_batch,
    "sobolev_circle.fourier_gram_quadrature_table": _measure_quad_table,
}


class Tracer:
    """Spans and counters of every traced call while installed."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.op = 0
        self._stack = []

    def wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self.counters, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function and binding; restore them on exit."""
        modules = {m: importlib.import_module(f"scalehilbert.{m}") for m in MODULES}
        package = importlib.import_module("scalehilbert")
        wrappers = {}
        patches = []

        def patch(owner, key, new):
            if isinstance(owner, dict):
                patches.append(functools.partial(owner.__setitem__, key, owner[key]))
                owner[key] = new
            else:
                patches.append(functools.partial(setattr, owner, key, getattr(owner, key)))
                setattr(owner, key, new)

        for short, mod in modules.items():
            names = [n for n in getattr(mod, "__all__", vars(mod)) if not n.startswith("_")]
            for attr in names + list(PRIVATE.get(short, ())):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[fn] = self.wrap(name, fn, MEASURES.get(name))
            for cls_name in CONSTRUCTORS.get(short, ()):
                cls = getattr(mod, cls_name)
                patch(cls, "__init__", self.wrap(f"{short}.{cls_name}", cls.__init__))
        for kernel, (ns_name, attr, counts_work) in KERNELS.items():
            ns = importlib.import_module(ns_name)
            fn = getattr(ns, attr)
            wrappers[fn] = self.wrap(f"kernels.{kernel}", fn, _measure_work if counts_work else None)
            patch(ns, attr, wrappers[fn])
        # module globals, and module-level dicts such as the CLI's dispatch table
        by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in by_id:
                    patch(mod, attr, by_id[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in by_id:
                            patch(value, key, by_id[id(item)])
        try:
            yield self
        finally:
            for restore in reversed(patches):
                restore()

    def stats(self):
        """name -> [calls, total seconds, self seconds]."""
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            row = out[name]
            row[0] += 1
            row[1] += dur
            row[2] += dur
            if parent >= 0:
                out[self.spans[parent][0]][2] -= dur
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer, ops):
    """Per-layer metrics, each per traced operation (``ops`` of them)."""
    stats = tracer.stats()
    counters = tracer.counters

    def calls(name):
        return stats[name][0] / ops if name in stats else 0.0

    def self_s(*names):
        return sum(stats[n][2] for n in names if n in stats) / ops

    cli_names = [n for n in stats if n.startswith("cli.") and n not in CLI_PARSE + CLI_WRITE]
    criteria = [n for n in stats if n.startswith("verify.criterion_")]
    hessian_ops = stats["cli.cmd_hessian_analyze"][0] if "cli.cmd_hessian_analyze" in stats else 0
    operators = counters["operators_analyzed"] + hessian_ops
    m = {
        "cli.parse_s": self_s(*CLI_PARSE),
        "cli.write_s": self_s(*CLI_WRITE),
        "cli.report_bytes": counters["report_bytes"] / ops,
        "cli.self_s": self_s(*cli_names),
        "verify.standard_operator_set.self_s": self_s("verify.standard_operator_set"),
        "verify.analyze_operator_batch.calls": calls("verify.analyze_operator_batch"),
        "verify.analyze_operator_batch.self_s": self_s("verify.analyze_operator_batch"),
        "verify.criteria.self_s": self_s(*criteria),
        "verify.operators_analyzed": counters["operators_analyzed"] / ops,
    }
    for f in HESSIAN_FUNCTIONS:
        m[f"hessian.{f}.calls"] = calls(f"hessian.{f}")
        m[f"hessian.{f}.self_s"] = self_s(f"hessian.{f}")
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.per_operator"] = stats[name][0] / operators if operators and name in stats else 0.0
    m["kernels.work_n3"] = counters["work_n3"] / ops
    m.update({
        "sobolev_circle.fourier_gram_quadrature_table.calls": calls("sobolev_circle.fourier_gram_quadrature_table"),
        "sobolev_circle.fourier_gram_quadrature_table.self_s": self_s("sobolev_circle.fourier_gram_quadrature_table"),
        "sobolev_circle.quad_table_bytes": float(counters["quad_table_bytes"]),
        "sobolev_circle.fourier_gram_closed_form.calls": calls("sobolev_circle.fourier_gram_closed_form"),
        "sobolev_circle.fourier_gram_closed_form.self_s": self_s("sobolev_circle.fourier_gram_closed_form"),
        "sobolev_circle.log_closed_form_diag.self_s": self_s("sobolev_circle._log_closed_form_diag"),
        "sobolev_circle.ratio_trace.self_s": self_s("sobolev_circle.ratio_trace"),
        "sobolev_circle.sigma_equivalence_constants.self_s": self_s("sobolev_circle.sigma_equivalence_constants"),
        "spaces.TruncatedScaleSpace.calls": calls("spaces.TruncatedScaleSpace"),
        "spaces.TruncatedScaleSpace.self_s": self_s("spaces.TruncatedScaleSpace"),
        "spaces.weighted_sequence_space.self_s": self_s("spaces.weighted_sequence_space"),
        "spaces.diagonal_equivalence_constants.self_s": self_s("spaces.diagonal_equivalence_constants"),
        "weights.poly_plus_one_weight.self_s": self_s("weights.poly_plus_one_weight"),
        "weights.weight_power.calls": calls("weights.weight_power"),
        "linalg.frobenius.calls": calls("linalg.frobenius"),
        "linalg.cholesky_spd.calls": calls("linalg.cholesky_spd"),
        "linalg.generalized_eigh.self_s": self_s("linalg.generalized_eigh"),
        "linalg.principal_angles.self_s": self_s("linalg.principal_angles"),
        "linalg.random_orthogonal.self_s": self_s("linalg.random_orthogonal"),
    })
    return m
