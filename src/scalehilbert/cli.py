"""Command line front end.

Four commands, selected with --command:

* sobolev-demo: closed-form circle Sobolev Grams against the quadrature
  oracle, with the weight ratio trace onto the quadratic model.
* hessian-analyze: the full certificate pipeline for one operator read
  from JSON (or a default diagonal demo operator).
* ladder: equivalence constants between two diagonal scale families
  across a ladder of truncation sizes.
* verify-all: the acceptance criterion suite.

Every command writes a JSON report (plus a CSV mirror for tabular
traces) and prints a short summary. A report is one line of JSON, exactly
as ``json.dumps`` writes it with non-finite floats as null, then a newline.
A CSV mirror has one line per row, its numbers' ``str`` (a float's repr, or
inf and nan) joined by commas, as ``csv.writer`` writes them; sobolev-demo
writes it with the report, formatting each number once. Reports carry no
timestamps, so a fixed configuration and seed reproduce them byte for byte.
Exit codes: 0 all certificates pass, 1 certificate failure, 2 input error.
"""

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .hessian import (
    OperatorAnalysis,
    ScaleOperator,
    graph_equivalence_constants,
    operator_from_json,
    regularity_constant,
    resolvent,  # noqa: F401  (kept bound here: certbench's tracer test patches cli.resolvent)
)
from .sobolev_circle import (_log_closed_form_diag, _log_closed_form_grades, oracle_deltas, ratio_trace,
                             sigma_equivalence_constants)
from .spaces import equivalence_constants
from .verify import DEFAULT_SEED, OPERATOR_CERTIFICATES, ORACLE_TOL, SYMMETRY, run_verify_all
from .weights import _closed_form_degree, _json_int, _json_type, _log_poly_plus_one, _require_double, json_field

__all__ = ["RunConfig", "main", "cmd_sobolev_demo", "cmd_hessian_analyze", "cmd_ladder", "cmd_verify_all"]

COMMANDS = ("sobolev-demo", "hessian-analyze", "ladder", "verify-all")
DEFAULT_LADDER = (64, 256, 1024)
# indices per chunk of the ladder's log tables; even, so that no frequency
# nu // 2 of a Sobolev side is split between two chunks
_LADDER_CHUNK = 2**12
# rows of a token table encoded per slice
_JSON_SLICE = 256


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 8
    nu_max: int = 16
    k_max: int | None = None
    input_path: str | None = None
    output_path: str | None = None
    seed: int = DEFAULT_SEED
    ladder: tuple | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for flag, value, low in (("--n", self.n, 1), ("--nu-max", self.nu_max, 1), ("--k-max", self.k_max, 0),
                                 ("--seed", self.seed, 0)):
            if value is not None and value < low:
                raise ValueError(f"{flag}: expected an integer >= {low}, got {value}")
        if self.ladder is not None:
            sizes = tuple(int(s) for s in self.ladder)
            if not sizes or any(s < 1 for s in sizes) or any(
                b <= a for a, b in zip(sizes, sizes[1:])
            ):
                raise ValueError(f"--ladder: expected strictly increasing positive sizes, got {list(sizes)}")
            object.__setattr__(self, "ladder", sizes)
        if self.command != "hessian-analyze":  # only an operator's scale sets another default
            object.__setattr__(self, "k_max", self.top_grade())

    def top_grade(self, scale=None) -> int:
        """--k-max (at most ``scale``'s top grade); unset, that grade, else 3."""
        if scale is not None and self.k_max is not None and self.k_max > scale.k_max:
            raise ValueError(f"--k-max {self.k_max}: the operator's scale has grades 0..{scale.k_max}")
        return self.k_max if self.k_max is not None else 3 if scale is None else scale.k_max

    def output_file(self) -> str:
        if self.output_path:
            return self.output_path
        return f"scalehilbert_{self.command.replace('-', '_')}.json"


class _TokenTable:
    """Rows of numbers as tokens (reprs), in blocks of token columns.
    :meth:`slices` yields their JSON text _JSON_SLICE rows at a time from one
    row template, which writes what ``json.dumps`` writes for a row's dict once
    non-finite tokens read null, after writing the rows to the CSV ``mirror``."""

    def __init__(self, keys: tuple, blocks: Iterator, mirror: str):
        self.keys, self.blocks, self.mirror = keys, blocks, mirror

    def slices(self) -> Iterator[str]:
        template = "{" + ", ".join(json.dumps(key) + ": %s" for key in self.keys) + "}"
        with open(self.mirror, "w", newline="") as mirror:
            mirror.write(",".join(self.keys) + "\n")
            for columns in self.blocks:
                rows = zip(*columns)
                while chunk := list(itertools.islice(rows, _JSON_SLICE)):
                    lines = "\n".join(map(",".join, chunk)) + "\n"
                    mirror.write(lines)
                    if "n" in lines:  # nan, inf or -inf: no other repr of a number holds an n
                        chunk = [tuple("null" if "n" in token else token for token in row) for row in chunk]
                    yield ", ".join(map(template.__mod__, chunk))


def _dumps(value) -> str:
    """``json.dumps(value)``, with every non-finite float written as null."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError:  # a NaN or an infinity: only then is the value read back with them as None
        return json.dumps(json.loads(json.dumps(value), parse_constant=lambda name: None))


def _write_json(path: str, obj: dict):
    """Write exactly ``json.dumps(obj) + "\\n"`` with non-finite floats as
    null, where a :class:`_TokenTable` is written as the list of its row
    dicts, with its CSV mirror.

    Every other top-level field is one ``_dumps`` call, in C; a token
    table, the one field that grows with the input, streams its slices.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(", " if i else "")
            if not isinstance(value, _TokenTable):
                fh.write(_dumps({key: value})[1:-1])
                continue
            fh.write(_dumps({key: []})[1:-2])  # '"key": ['
            for j, text in enumerate(value.slices()):
                fh.write(", " + text if j else text)
            fh.write("]")
        fh.write("}\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))


def _csv_path(json_path: str) -> str:
    return os.path.splitext(json_path)[0] + ".csv"


def cmd_sobolev_demo(cfg: RunConfig) -> int:
    """Gram table, oracle deltas, ratio trace, and per-grade constants."""
    if _log_closed_form_diag(cfg.nu_max, cfg.k_max) >= math.log(sys.float_info.max):
        raise ValueError(f"--k-max {cfg.k_max} overflows the closed-form Sobolev weight at --nu-max {cfg.nu_max}")
    grades, worst = [], 0.0
    for k, (diag, quad, delta) in enumerate(oracle_deltas(cfg.nu_max, cfg.k_max)):  # diagonals per frequency
        worst = float(np.max([worst, delta]))  # a NaN delta fails
        grades.append((diag, quad, np.abs(diag - quad), ratio_trace(cfg.nu_max, k)))

    def blocks():  # one grade's token columns at a time, those of a frequency gathered by nu // 2
        nu, freq = list(map(str, range(1, cfg.nu_max + 1))), [i // 2 for i in range(1, cfg.nu_max + 1)]
        for k, columns in enumerate(grades):
            *per_freq, ratio = [list(map(repr, column.tolist())) for column in columns]
            yield [nu, [str(k)] * cfg.nu_max, *(list(map(tokens.__getitem__, freq)) for tokens in per_freq), ratio]

    constants = []
    for k in range(cfg.k_max + 1):
        c_lo, c_hi = sigma_equivalence_constants(cfg.nu_max, k)
        constants.append({"k": k, "c_lo": c_lo, "c_hi": c_hi})
    passed = worst <= ORACLE_TOL
    out = cfg.output_file()
    report = {
        "command": "sobolev-demo",
        "nu_max": cfg.nu_max,
        "k_max": cfg.k_max,
        "tol": ORACLE_TOL,
        "oracle": {"worst_scaled_delta": worst, "passed": passed},
        "sigma_constants": constants,
        "rows": _TokenTable(("nu", "k", "closed_form", "quadrature", "abs_delta", "ratio"), blocks(), _csv_path(out)),
    }
    _write_json(out, report)
    status, count = "PASS" if passed else "FAIL", cfg.nu_max * (cfg.k_max + 1)
    print(f"sobolev-demo: {count} rows, worst scaled oracle delta {worst:.3e} (tol {ORACLE_TOL:.1e}): {status}")
    print(f"report: {out} (CSV mirror {_csv_path(out)})")
    return 0 if passed else 1


def _read_input(path: str) -> dict:
    """The JSON object of an --input file. A syntax error, nesting too
    deep for the parser or an integer too long to read names the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"input {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"input {path}: expected a JSON object, got {_json_type(obj)}")
    return obj


def _load_operator(cfg: RunConfig) -> tuple[ScaleOperator, str]:
    if cfg.input_path is None:
        try:
            return ScaleOperator(np.diag(np.arange(1.0, cfg.n + 1.0))), f"diag(1..{cfg.n})"
        except (MemoryError, ValueError):  # numpy raises ValueError past its largest array size
            raise ValueError(f"--n {cfg.n}: the default {cfg.n} x {cfg.n} operator matrix is too large to allocate") from None
    return operator_from_json(_read_input(cfg.input_path)), cfg.input_path


def cmd_hessian_analyze(cfg: RunConfig) -> int:
    """Every operator certificate, in registry order; halts early on asymmetry.

    All certificates read one :class:`OperatorAnalysis` of the operator at
    the top grade :meth:`RunConfig.top_grade` resolves.
    """
    op, source = _load_operator(cfg)
    analysis = OperatorAnalysis(op, cfg.top_grade(op.scale))
    certificates = []
    report = {"command": "hessian-analyze", "operator": {"n": op.n, "source": source}, "certificates": certificates}
    out = cfg.output_file()

    for cert in OPERATOR_CERTIFICATES:
        defect = float(cert.defect(analysis))
        passed = bool(defect <= cert.tol)
        certificates.append({"name": cert.name, "defect": defect, "tol": cert.tol, "passed": passed})
        if cert is SYMMETRY and not passed:
            report["passed"] = False
            report["halted_after"] = cert.name
            _write_json(out, report)
            print(f"hessian-analyze: symmetry defect {defect:.3e} exceeds tol; partial report: {out}")
            return 1

    weight_rows = [
        {"nu": i + 1, "gamma": float(g), "weight": float(np.exp(lv))}
        for i, (g, lv) in enumerate(zip(analysis.spectral.gammas, analysis.fractal_weight.log_values))
    ]
    c_lo, c_hi = graph_equivalence_constants(analysis)
    report["constants"] = {
        "regularity": [regularity_constant(analysis, k) for k in range(analysis.k_max)],
        "graph_equivalence": {"c_lo": c_lo, "c_hi": c_hi},
    }
    kernel = analysis.kernel
    report["kernel"] = {"ker_dim": kernel.ker_dim, "coker_dim": kernel.coker_dim}
    report["gammas"] = [float(g) for g in analysis.spectral.gammas]
    report["fractal_weight"] = weight_rows
    passed = all(c["passed"] for c in certificates)
    report["passed"] = passed

    _write_json(out, report)
    _write_csv(
        _csv_path(out),
        ["nu", "gamma", "weight"],
        [[w["nu"], w["gamma"], w["weight"]] for w in weight_rows],
    )
    failed = [c["name"] for c in certificates if not c["passed"]]
    status = "PASS" if passed else f"FAIL ({', '.join(failed)})"
    print(f"hessian-analyze: {len(certificates)} certificates on {source}: {status}")
    print(f"report: {out} (CSV mirror {_csv_path(out)})")
    return 0 if passed else 1


def _parse_ladder_side(name: str, side):
    """Ladder side ``name`` as a function of a run of consecutive indices
    nu, which returns k -> log weight table of grade k on those indices.
    Both kinds of side are elementwise in nu, so the tables of a chunk of
    indices are the matching slice of the tables on 1..n."""
    if side == "sobolev":
        return _log_closed_form_grades
    spec = json_field(side, "weight", name)
    power = _json_int(side, "power", name, 1)
    if json_field(spec, "kind", f"{name}.weight") != "closed_form":
        raise ValueError(f"{name}.weight.kind: ladder sides need closed-form weights (tables cannot grow with n)")
    if power < 1:
        raise ValueError(f"{name}.power: expected an integer >= 1, got {power}")
    _require_double(power, f"{name}.power")
    degree = _closed_form_degree(spec, f"{name}.weight")

    def grades(nu):
        log_values = _log_poly_plus_one(nu, degree)
        return lambda k: log_values * (power * k)

    return grades


def _ladder_grade(k: int, c_lo: float, c_hi: float) -> tuple[dict, list]:
    """The report entry of grade k at one rung, and the names of its
    entries that are not finite doubles."""
    grade = {"k": k, "c_lo": c_lo, "c_hi": c_hi, "spread": c_hi / c_lo if c_lo > 0.0 else math.inf}
    return grade, [name for name in ("c_lo", "c_hi", "spread") if not math.isfinite(grade[name])]


def _ladder_constants(left, right, sizes, k_max: int) -> dict:
    """{(k, n): (c_lo, c_hi)}, the extremes of the ratio of the two sides'
    grade-k weights over indices 1..n, for each rung n in sizes.

    Both sides are evaluated over chunks of _LADDER_CHUNK indices, chunks
    outer and grades inner, and each chunk is reduced per grade into running
    prefix extremes that each rung reads at its boundary (a min of minima is
    the prefix min, exactly). A grade whose running constants are not finite
    fails at the last rung already; later chunks skip the grades above it,
    which are then missing.
    """
    lows, highs = np.full(k_max + 1, math.inf), np.full(k_max + 1, -math.inf)
    rungs, constants, top = set(sizes), {}, k_max
    bounds = [0, *range(_LADDER_CHUNK - 1, sizes[-1], _LADDER_CHUNK), sizes[-1]]
    for lo, hi in zip(bounds, bounds[1:]):
        nu = np.arange(lo + 1, hi + 1)
        left_logs, right_logs = left(nu), right(nu)
        cuts = [lo, *(n for n in sizes if lo < n < hi), hi]
        for k in range(top + 1):
            log_l, log_r = left_logs(k), right_logs(k)
            for a, b in zip(cuts, cuts[1:]):
                with np.errstate(over="ignore"):  # an overflow is rejected by the caller, by grade and rung
                    c_lo, c_hi = equivalence_constants(log_l[a - lo : b - lo], log_r[a - lo : b - lo])
                lows[k], highs[k] = np.minimum(lows[k], c_lo), np.maximum(highs[k], c_hi)  # a NaN stays
                if b in rungs:
                    constants[k, b] = float(lows[k]), float(highs[k])
            if _ladder_grade(k, float(lows[k]), float(highs[k]))[1]:
                top = k
                break
    return constants


def cmd_ladder(cfg: RunConfig) -> int:
    """Equivalence constants between two diagonal families across sizes."""
    sizes = cfg.ladder if cfg.ladder is not None else DEFAULT_LADDER
    if cfg.input_path is not None:
        sides = _read_input(cfg.input_path)
        missing = [name for name in ("left", "right") if name not in sides]
        if missing:
            raise ValueError(f"input {cfg.input_path}: missing ladder side {' and '.join(map(repr, missing))}")
        left, right = sides["left"], sides["right"]
    else:
        left = "sobolev"
        right = {"weight": {"n": sizes[-1], "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}}
    constants = _ladder_constants(_parse_ladder_side("left", left), _parse_ladder_side("right", right), sizes, cfg.k_max)
    grades = {n: [] for n in sizes}
    for k in range(cfg.k_max + 1):
        for n in sizes:
            grade, bad = _ladder_grade(k, *constants[k, n])
            if bad:
                raise ValueError(f"--k-max {cfg.k_max}: the {bad[0]} of grade {k} at rung n={n} is not a finite double")
            grades[n].append(grade)
    rungs = [{"n": n, "grades": grades[n]} for n in sizes]
    csv_rows = [[n, g["k"], g["c_lo"], g["c_hi"], g["spread"]] for n in sizes for g in grades[n]]
    stability = []
    for k in range(cfg.k_max + 1):
        spreads = [r["grades"][k]["spread"] for r in rungs]
        growth = max(spreads) / min(spreads)
        stability.append({"k": k, "spread_growth_across_ladder": growth, "stable_within_5pct": growth <= 1.05})
    report = {
        "command": "ladder",
        "sizes": list(sizes),
        "k_max": cfg.k_max,
        "left": left,
        "right": right,
        "rungs": rungs,
        "stability": stability,
        "growth_flagged": any(not s["stable_within_5pct"] for s in stability),
    }
    out = cfg.output_file()
    _write_json(out, report)
    _write_csv(_csv_path(out), ["n", "k", "c_lo", "c_hi", "spread"], csv_rows)
    flagged = [s["k"] for s in stability if not s["stable_within_5pct"]]
    note = f"growth flagged at grades {flagged}" if flagged else "constant envelopes stable within 5%"
    print(f"ladder: sizes {list(sizes)}, grades 0..{cfg.k_max}: {note}")
    print(f"report: {out} (CSV mirror {_csv_path(out)})")
    return 0


def cmd_verify_all(cfg: RunConfig) -> int:
    """The acceptance suite; one line per criterion, JSON summary report."""
    summary = run_verify_all(seed=cfg.seed)
    for result in summary.results:
        print(result.line())
    report = summary.to_report()
    report["command"] = "verify-all"
    out = cfg.output_file()
    _write_json(out, report)
    overall = "PASS" if summary.passed else "FAIL"
    print(f"verify-all: {overall} ({sum(r.passed for r in summary.results)}/{len(summary.results)} criteria), report: {out}")
    return 0 if summary.passed else 1


_DISPATCH = {
    "sobolev-demo": cmd_sobolev_demo,
    "hessian-analyze": cmd_hessian_analyze,
    "ladder": cmd_ladder,
    "verify-all": cmd_verify_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalehilbert",
        description="Certificates for truncated scale Hilbert spaces and symmetric operators.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--n", type=int, help="operator dimension (hessian-analyze default operator)")
    parser.add_argument("--nu-max", type=int, dest="nu_max", help="number of basis indices (sobolev-demo)")
    parser.add_argument("--k-max", type=int, help="highest grade (default 3, or at most and by default a scale's top)")
    parser.add_argument("--input", dest="input_path", help="input JSON (operator or ladder sides)")
    parser.add_argument("--output", dest="output_path", help="report JSON path")
    parser.add_argument("--seed", type=int, help="PRNG seed for randomized instances")
    parser.add_argument("--ladder", help='comma-separated truncation sizes, e.g. "64,256,1024"')
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING})
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.ladder is not None:
            try:
                args.ladder = tuple(int(part) for part in args.ladder.split(",") if part.strip())
            except ValueError:
                raise ValueError(f"--ladder: expected comma-separated integers, got {args.ladder!r}") from None
        cfg = RunConfig(**vars(args))  # the parser's dests are RunConfig's fields
        return _DISPATCH[cfg.command](cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
