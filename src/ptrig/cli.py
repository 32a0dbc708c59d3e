"""Command-line front end with machine-readable JSON/CSV output.

Every subcommand emits OutputRecord objects: command name, parameters,
results and an ISO-8601 timestamp.  For reproducible runs the timestamp
honours the SOURCE_DATE_EPOCH convention; identical invocations then
produce byte-identical output.  Exit codes:
0 success, 2 domain/validation error, 3 numerical failure, 141 when the
reader of stdout closes it early (128 + SIGPIPE, as a shell reports).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import basis_operator as bop
from . import core, fourier, regularity, thresholds
from .errors import ConvergenceError, DomainError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141

P0_REFERENCE = (1.458801, 5e-6)
P1_REFERENCE = (2.42865, 5e-5)


def _fmt(x) -> str:
    """Floats with 17 significant digits; plain str for everything else."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
        except (ValueError, OverflowError, OSError):
            raise DomainError(
                f"SOURCE_DATE_EPOCH requires an integer number of seconds, got {epoch!r}"
            ) from None
    return datetime.now(tz=timezone.utc).isoformat()


def _record(command, params, results, stamp):
    return {"command": command, "params": params, "results": results, "timestamp": stamp}


def _emit_json(records, out):
    for rec in records:
        out.write(json.dumps(rec, sort_keys=False) + "\n")


def _emit_csv(records, out):
    keys = []
    for rec in records:
        for k in list(rec["params"]) + list(rec["results"]):
            if k not in keys:
                keys.append(k)
    out.write(",".join(keys) + "\n")
    for rec in records:
        row = {**rec["params"], **rec["results"]}
        out.write(",".join(_fmt(row.get(k, "")) for k in keys) + "\n")


def _write(records, args):
    try:
        stream = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise DomainError(f"cannot write output file {args.out!r}: {exc.strerror}") from None
    try:
        if args.format == "json":
            _emit_json(records, stream)
        else:
            _emit_csv(records, stream)
        stream.flush()  # a closed pipe raises here, inside main, not at exit
    finally:
        if args.out:
            stream.close()


def _grid(args) -> np.ndarray:
    if args.x is not None:
        return np.array([args.x], dtype=float)
    if args.x_min is None or args.x_max is None:
        raise DomainError("eval requires either --x or --x-min/--x-max")
    if args.x_num < 1:
        raise DomainError(f"eval --x-num requires an integer >= 1, got {args.x_num}")
    return np.linspace(args.x_min, args.x_max, args.x_num)


# CLI name -> function in ptrig.core, looked up by name at call time so
# that a wrapper installed on the module after import sees the call
_EVAL_FNS = {
    "sin_p": "sin_p",
    "cos_p": "cos_p",
    "exp_p": "exp_p",
    "F_p": "incomplete_F",
    "u_p": "u_p",
    "v_p": "v_p",
}


def _cmd_eval(args, stamp):
    xs = _grid(args)
    values = getattr(core, _EVAL_FNS[args.fn])(xs, args.p)
    records = []
    for x, value in zip(xs, values):
        params = {"fn": args.fn, "p": args.p, "x": float(x)}
        if args.fn == "exp_p":
            results = {"value_re": float(value.real), "value_im": float(value.imag)}
        else:
            results = {"value": float(value)}
        records.append(_record("eval", params, results, stamp))
    return records


def _bound_for(kind, p, j):
    """The decay bound of coefficient j, or "" where the bound does not
    apply (p = 2, or j below the bound's first index)."""
    bound = fourier.cosine_bound if kind == fourier.KIND_COSINE else regularity.sine_bound
    try:
        return bound(p, j)
    except DomainError:
        return ""


def _report_record(command, report, params, stamp):
    """One record of a report dataclass: its fields not already in params
    are the results, with None written as ""."""
    results = {k: "" if v is None else v
               for k, v in dataclasses.asdict(report).items() if k not in params}
    return _record(command, params, results, stamp)


def _cmd_coeffs(args, stamp):
    kind = fourier.KIND_COSINE if args.kind == "cosine" else fourier.KIND_SINE
    table = fourier.coeff_table(args.p, args.jmax, kind)
    records = []
    for j in sorted(table.entries):
        value, err = table.entries[j]
        params = {"kind": args.kind, "p": args.p, "j": j}
        results = {"value": value, "err_est": err, "bound": _bound_for(kind, float(args.p), j)}
        records.append(_record("coeffs", params, results, stamp))
    return records


def _cmd_criterion(args, stamp):
    report = fourier.basis_criterion(args.p, J=args.J)
    return [_report_record("criterion", report, {"p": args.p, "J": args.J}, stamp)]


def _cmd_thresholds(args, stamp):
    records = []
    for name, solver, (ref, window) in (
        ("p0", thresholds.solve_lower_threshold, P0_REFERENCE),
        ("p1", thresholds.solve_upper_threshold, P1_REFERENCE),
    ):
        result = solver()
        results = {
            "root": result.root,
            "residual": result.residual,
            "bracket_lo": result.bracket[0],
            "bracket_hi": result.bracket[1],
            "iterations": result.iterations,
            "reference": ref,
            "within_reference": abs(result.root - ref) < window,
            "trace": list(result.trace) if args.format == "json" else len(result.trace),
        }
        records.append(_record("thresholds", {"name": name}, results, stamp))
    return records


def _cmd_regularity(args, stamp):
    report = regularity.regularity_report(args.p, args.rho, args.J)
    params = {"p": args.p, "rho": args.rho, "J": args.J}
    return [_report_record("regularity", report, params, stamp)]


def _cmd_operator(args, stamp):
    params = {"p": args.p, "N": args.N, "action": args.action}
    if args.action == "build":
        entries = bop.build_truncated_operator(args.p, args.N).entries
        return [
            _record("operator", {**params, "k": k, "n": n}, {"value": entries[k, n]}, stamp)
            for k, n in sorted(entries)
        ]
    if args.action == "reconstruct":
        dev = bop.reconstruct_check(args.p, args.n, args.N)
        return [_record("operator", {**params, "n": args.n}, {"max_abs_dev": dev}, stamp)]
    if args.vector is None:
        raise DomainError("operator expand requires --vector with comma-separated coefficients")
    try:
        vector = [float(v) for v in args.vector.split(",")]
    except ValueError as exc:
        raise DomainError(f"operator --vector requires finite numbers: {exc}") from None
    if len(vector) > args.N >= 1:  # an N below 1 gets the library's own message
        raise DomainError(
            f"operator --vector has {len(vector)} coefficients, more than N = {args.N}"
        )
    fhat = bop.CosineVector(np.array(vector))
    coeffs, residual = bop.expand_in_pcosine(fhat, args.p, args.N)
    results = {"coeffs": list(coeffs.coeffs), "residual": residual}
    if args.format == "csv":
        results["coeffs"] = " ".join(_fmt(c) for c in coeffs.coeffs)
    return [_record("operator", params, results, stamp)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrig",
        description="Generalized p-trigonometric functions, Fourier coefficients, "
        "basis criterion, and threshold solvers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a function on a grid")
    p_eval.add_argument("fn", choices=_EVAL_FNS)
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--x-min", type=float, default=None)
    p_eval.add_argument("--x-max", type=float, default=None)
    p_eval.add_argument("--x-num", type=int, default=11)
    p_eval.set_defaults(func=_cmd_eval)

    p_coeffs = sub.add_parser("coeffs", parents=[common], help="export a coefficient table")
    p_coeffs.add_argument("--p", type=float, required=True)
    p_coeffs.add_argument("--jmax", type=int, required=True)
    p_coeffs.add_argument("--kind", choices=("cosine", "sine"), default="cosine")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_crit = sub.add_parser("criterion", parents=[common], help="evaluate the basis criterion")
    p_crit.add_argument("--p", type=float, required=True)
    p_crit.add_argument("--J", type=int, default=999)
    p_crit.set_defaults(func=_cmd_criterion)

    p_thr = sub.add_parser("thresholds", parents=[common], help="solve both threshold equations")
    p_thr.set_defaults(func=_cmd_thresholds)

    p_reg = sub.add_parser("regularity", parents=[common], help="regularity diagnostics")
    p_reg.add_argument("--p", type=float, required=True)
    p_reg.add_argument("--rho", type=float, required=True)
    p_reg.add_argument("--J", type=int, default=199)
    p_reg.set_defaults(func=_cmd_regularity)

    p_op = sub.add_parser("operator", parents=[common], help="truncated operator actions")
    p_op.add_argument("--p", type=float, required=True)
    p_op.add_argument("--N", type=int, required=True)
    p_op.add_argument("--action", choices=("build", "reconstruct", "expand"), default="build")
    p_op.add_argument("--n", type=int, default=1, help="column index for reconstruct")
    p_op.add_argument("--vector", default=None, help="comma-separated coefficients for expand")
    p_op.set_defaults(func=_cmd_operator)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "p"):
            core.PExponent.of(args.p)
        stamp = _timestamp()
        records = args.func(args, stamp)
        _write(records, args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
