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
traces) and prints a short summary. Reports carry no timestamps, so a
fixed configuration and seed reproduce them byte for byte. Exit codes:
0 all certificates pass, 1 certificate failure, 2 input error.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .hessian import (
    OperatorAnalysis,
    ScaleOperator,
    operator_from_json,
    regularity_constant,
    resolvent,  # noqa: F401  (kept bound here: certbench's tracer test patches cli.resolvent)
)
from .sobolev_circle import _log_closed_form_diag, oracle_deltas, ratio_trace, sigma_equivalence_constants
from .spaces import diagonal_equivalence_constants
from .verify import DEFAULT_SEED, OPERATOR_CERTIFICATES, ORACLE_TOL, SYMMETRY, run_verify_all
from .weights import _json_int, _json_type, json_field, weight_from_json

__all__ = ["RunConfig", "main", "cmd_sobolev_demo", "cmd_hessian_analyze", "cmd_ladder", "cmd_verify_all"]

COMMANDS = ("sobolev-demo", "hessian-analyze", "ladder", "verify-all")
DEFAULT_LADDER = (64, 256, 1024)


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 8
    nu_max: int = 16
    k_max: int = 3
    tol: float | None = None
    input_path: str | None = None
    output_path: str | None = None
    seed: int = DEFAULT_SEED
    ladder: tuple | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n < 1 or self.nu_max < 1:
            raise ValueError("dimensions must be >= 1")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.ladder is not None:
            sizes = tuple(int(s) for s in self.ladder)
            if not sizes or any(s < 1 for s in sizes) or any(
                b <= a for a, b in zip(sizes, sizes[1:])
            ):
                raise ValueError("ladder must be strictly increasing positive sizes")
            object.__setattr__(self, "ladder", sizes)

    def output_file(self) -> str:
        if self.output_path:
            return self.output_path
        return f"scalehilbert_{self.command.replace('-', '_')}.json"


def _write_json(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_path(json_path: str) -> str:
    return os.path.splitext(json_path)[0] + ".csv"


def cmd_sobolev_demo(cfg: RunConfig) -> int:
    """Gram table, oracle deltas, ratio trace, and per-grade constants."""
    if _log_closed_form_diag(cfg.nu_max, cfg.k_max) >= math.log(sys.float_info.max):
        raise ValueError(f"--k-max {cfg.k_max} overflows the closed-form Sobolev weight at --nu-max {cfg.nu_max}")
    tol = cfg.tol if cfg.tol is not None else ORACLE_TOL
    rows = []
    worst = 0.0
    for k, (diag, quad, delta) in enumerate(oracle_deltas(cfg.nu_max, cfg.k_max)):
        ratios = ratio_trace(cfg.nu_max, k)
        worst = float(np.max([worst, delta]))  # a NaN delta fails
        for nu in range(1, cfg.nu_max + 1):
            closed = float(diag[nu - 1])
            quadrature = float(quad[nu - 1, nu - 1])
            rows.append(
                {
                    "nu": nu,
                    "k": k,
                    "closed_form": closed,
                    "quadrature": quadrature,
                    "abs_delta": abs(closed - quadrature),
                    "ratio": float(ratios[nu - 1]),
                }
            )
    constants = []
    for k in range(cfg.k_max + 1):
        c_lo, c_hi = sigma_equivalence_constants(cfg.nu_max, k)
        constants.append({"k": k, "c_lo": c_lo, "c_hi": c_hi})
    passed = worst <= tol
    report = {
        "command": "sobolev-demo",
        "nu_max": cfg.nu_max,
        "k_max": cfg.k_max,
        "tol": tol,
        "oracle": {"worst_scaled_delta": worst, "passed": passed},
        "sigma_constants": constants,
        "rows": rows,
    }
    out = cfg.output_file()
    _write_json(out, report)
    _write_csv(
        _csv_path(out),
        ["nu", "k", "closed_form", "quadrature", "abs_delta", "ratio"],
        [[r["nu"], r["k"], r["closed_form"], r["quadrature"], r["abs_delta"], r["ratio"]] for r in rows],
    )
    status = "PASS" if passed else "FAIL"
    print(f"sobolev-demo: {len(rows)} rows, worst scaled oracle delta {worst:.3e} (tol {tol:.1e}): {status}")
    print(f"report: {out} (CSV mirror {_csv_path(out)})")
    return 0 if passed else 1


def _read_input(path: str) -> dict:
    """The JSON object of an --input file."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"input {path}: expected a JSON object, got {_json_type(obj)}")
    return obj


def _load_operator(cfg: RunConfig) -> tuple[ScaleOperator, str]:
    if cfg.input_path is None:
        return ScaleOperator(np.diag(np.arange(1.0, cfg.n + 1.0))), f"diag(1..{cfg.n})"
    return operator_from_json(_read_input(cfg.input_path)), cfg.input_path


def cmd_hessian_analyze(cfg: RunConfig) -> int:
    """Every operator certificate, in registry order; halts early on asymmetry.

    All certificates read one :class:`OperatorAnalysis` of the operator.
    """
    op, source = _load_operator(cfg)
    analysis = OperatorAnalysis(op)
    certificates = []
    report = {"command": "hessian-analyze", "operator": {"n": op.n, "source": source}, "certificates": certificates}
    out = cfg.output_file()

    for cert in OPERATOR_CERTIFICATES:
        defect, tol = float(cert.defect(analysis, cfg.k_max)), float(cert.tolerance(cfg.tol))
        passed = bool(defect <= tol)
        certificates.append({"name": cert.name, "defect": defect, "tol": tol, "passed": passed})
        if cert is SYMMETRY:
            if not passed:
                report["passed"] = False
                report["halted_after"] = cert.name
                _write_json(out, report)
                print(f"hessian-analyze: symmetry defect {defect:.3e} exceeds tol; partial report: {out}")
                return 1
            # the gate passed at the tolerance reported above
            analysis.symmetric = True

    weight_rows = [
        {"nu": i + 1, "gamma": float(g), "weight": float(np.exp(lv))}
        for i, (g, lv) in enumerate(zip(analysis.spectral.sorted_gammas(), analysis.fractal_weight.log_values))
    ]
    c_lo, c_hi, c_step1 = analysis.graph_equivalence
    report["constants"] = {
        "regularity_grade0": regularity_constant(analysis, 0),
        "graph_equivalence": {"c_lo": c_lo, "c_hi": c_hi, "c_step1": c_step1},
    }
    kernel = analysis.kernel
    report["kernel"] = {"ker_dim": kernel.ker_dim, "coker_dim": kernel.coker_dim, "index": kernel.index}
    report["gammas"] = [float(g) for g in analysis.spectral.gammas]
    report["order"] = [int(i) for i in analysis.spectral.order]
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


def _parse_ladder_side(name: str, side, n: int):
    """Ladder side ``name`` as a function k -> log weight table of grade k
    on indices 1..n. Both kinds of side are elementwise in nu, so the
    table of a smaller size is a prefix of this one."""
    if side == "sobolev":
        nu = np.arange(1, n + 1)
        return lambda k: _log_closed_form_diag(nu, k)
    spec = json_field(side, "weight", name)
    power = _json_int(side, "power", name, 1)
    if json_field(spec, "kind", f"{name}.weight") != "closed_form":
        raise ValueError("ladder sides need closed-form weights (tables cannot grow with n)")
    if power < 1:
        raise ValueError("ladder side power must be >= 1")
    log_values = weight_from_json({**spec, "n": n}, f"{name}.weight").log_values
    return lambda k: log_values * (power * k)


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
    # each side once per grade at the largest size; every rung reads a prefix
    left_logs, right_logs = _parse_ladder_side("left", left, sizes[-1]), _parse_ladder_side("right", right, sizes[-1])
    grades = {n: [] for n in sizes}
    for k in range(cfg.k_max + 1):
        log_l, log_r = left_logs(k), right_logs(k)
        for n in sizes:
            c_lo, c_hi = diagonal_equivalence_constants(log_l[:n], log_r[:n])
            grades[n].append({"k": k, "c_lo": c_lo, "c_hi": c_hi, "spread": c_hi / c_lo})
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
    summary = run_verify_all(seed=cfg.seed, tol=cfg.tol)
    for result in summary.results:
        print(result.line())
    report = summary.to_report()
    report["command"] = "verify-all"
    report["tol_override"] = cfg.tol
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
    parser.add_argument("--n", type=int, default=8, help="operator dimension (hessian-analyze default operator)")
    parser.add_argument("--nu-max", type=int, default=16, dest="nu_max", help="number of basis indices (sobolev-demo)")
    parser.add_argument("--k-max", type=int, default=3, dest="k_max", help="highest grade")
    parser.add_argument("--tol", type=float, default=None, help="override certificate tolerances (default: per-check)")
    parser.add_argument("--input", default=None, dest="input_path", help="input JSON (operator or ladder sides)")
    parser.add_argument("--output", default=None, dest="output_path", help="report JSON path")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed for randomized instances")
    parser.add_argument("--ladder", default=None, help='comma-separated truncation sizes, e.g. "64,256,1024"')
    return parser


def _config_from_args(args) -> RunConfig:
    ladder = None
    if args.ladder is not None:
        ladder = tuple(int(part) for part in str(args.ladder).split(",") if part.strip())
    return RunConfig(
        command=args.command,
        n=args.n,
        nu_max=args.nu_max,
        k_max=args.k_max,
        tol=args.tol,
        input_path=args.input_path,
        output_path=args.output_path,
        seed=args.seed,
        ladder=ladder,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
