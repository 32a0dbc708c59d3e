"""The four benchmark workloads: seeded inputs, timed rounds, correctness gates.

Each workload is a closed loop with one client: the next call starts when
the previous one has returned.  A round is the fixed script of calls the
workload is named after; its inputs come from ``numpy.random.default_rng``
seeded with (seed, stream, round index) (see ``seeded``), so the
same seed gives the same inputs and the library sees only the generated
values.

Gates run after the timed part and use routes independent of the code
being timed: scipy's regularized incomplete beta function for F_p and its
inverse, the JSON schema for CLI records, and the public cross-checks the
library offers (coefficient relation, operator reconstruction).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

import ptrig

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SCHEMA = ROOT / "src" / "ptrig" / "schema" / "output_record.schema.json"

# When these gates were set the program agreed with their references to
# 3e-14 or better; the tolerances leave a factor of about 30.
SIN_TOL = 1e-12
F_REL_TOL = 1e-12
IDENTITY_TOL = 1e-12
RELATION_TOL = 1e-12
RESIDUAL_TOL = 1e-12
RECONSTRUCT_TOL = 1e-11

P0_BRACKET = (1.46, 2.0)  # criterion exponents: one below 2 ...
P1_BRACKET = (2.0, 2.42)  # ... and one above, both inside [p0, p1]
REGULARITY_RANGE = (1.2, 4.0)
EVAL_EXPONENTS = (1.1, 1.5, 3.0, 10.0)

SIZES = {
    "full": {
        "criterion_J": 999,
        "regularity_J": 199,
        "regularity_n": 6,
        "eval_n": 2000,
        "operator_N": 1024,
        "expansions": 250,
        "reconstruct_N": 32,
    },
    "small": {
        "criterion_J": 99,
        "regularity_J": 51,
        "regularity_n": 2,
        "eval_n": 100,
        "operator_N": 128,
        "expansions": 10,
        "reconstruct_N": 16,
    },
}

# The fixed cli_oneshot script: (label, argv after "ptrig").
CLI_SCRIPT = (
    ("eval_sin_p", "eval sin_p --p 2 --x 1.0"),
    ("eval_cos_p", "eval cos_p --p 1.1 --x-min -5 --x-max 5 --x-num 200"),
    ("eval_F_p", "eval F_p --p 1.5 --x-min 0 --x-max 1 --x-num 201"),
    ("thresholds", "thresholds"),
    ("coeffs", "coeffs --p 1.5 --jmax 199"),
    ("criterion", "criterion --p 1.7 --J 199"),
    ("regularity", "regularity --p 3 --rho 1.9 --J 199"),
    ("operator_build", "operator --p 1.5 --N 256 --action build"),
    ("operator_expand", "operator --p 1.7 --N 256 --action expand --vector 0,1,0,2,0.5"),
)


def child_env():
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def seeded(seed, stream, *keys):
    """Generator for one input stream of a run; equal arguments, equal inputs."""
    return np.random.default_rng([seed % 2**64, stream, *keys])


def round_rng(seed, index):
    return seeded(seed, 1, index)


@dataclass
class Op:
    """One timed call: what was asked, how long it took, what came back."""

    label: str
    round: int
    seconds: float
    args: tuple
    output: object = None
    error: str | None = None
    passed: bool = False


def timed(label, index, fn, *args):
    """Call fn(*args) once, timing it; an exception becomes a failed op."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
        err = None
    except Exception as exc:  # recorded and counted, the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Op(label, index, time.perf_counter() - t0, args, out, err)


def fifth_percentile(values):
    return float(np.percentile(values, 5))


def _stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal strata of (lo, hi)."""
    width = (hi - lo) / n
    return [lo + (k + rng.uniform()) * width for k in range(n)]


def _digest_bytes(value):
    if isinstance(value, ptrig.CosineVector):
        return value.coeffs.tobytes()
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value, dtype=float).tobytes()
    if isinstance(value, bytes):
        return value
    if isinstance(value, tuple):
        return b"|".join(_digest_bytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return repr(astuple(value)).encode()
    return repr(value).encode()


def digest(ops):
    """sha256 over the labels and numeric outputs of the given ops."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        h.update(_digest_bytes(op.output))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# criterion_scan
# ---------------------------------------------------------------------------


class CriterionScan:
    """basis_criterion at J = 999 twice, then six regularity reports."""

    name = "criterion_scan"
    setup_code = "import ptrig"
    call_statistic = staticmethod(statistics.median)

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]

    def setup(self):
        return None

    def run_round(self, index, tracer=None):
        rng = round_rng(self.seed, index)
        J = self.size["criterion_J"]
        ops = []
        for k, (lo, hi) in enumerate((P0_BRACKET, P1_BRACKET)):
            p = float(rng.uniform(lo, hi))
            ops.append(timed(f"criterion.{k}", index, ptrig.basis_criterion, p, J))
        strata = _stratified(rng, *REGULARITY_RANGE, self.size["regularity_n"])
        for k, p in enumerate(strata):
            ops.append(timed(f"regularity.{k}", index, ptrig.regularity_report, p, 1.0,
                             self.size["regularity_J"]))
        return ops

    def check(self, op):
        if op.label.startswith("criterion"):
            report = op.output
            p = op.args[0]
            return (
                report.holds
                and report.margin > 0.0
                and ptrig.coeff_relation_check(p, 1) <= RELATION_TOL
            )
        report = op.output
        return (
            math.isfinite(report.partial_sum)
            and report.partial_sum > 0.0
            and math.isfinite(report.slope_estimate)
            and report.slope_estimate < 0.0
        )

    def gate_only(self):
        return []

    def named_metrics(self, rounds):
        ops = [op for _, round_ops in rounds for op in round_ops]
        return {
            "criterion_s": (statistics.median(
                op.seconds for op in ops if op.label.startswith("criterion")), "s"),
            "regularity_s": (statistics.median(
                op.seconds for op in ops if op.label.startswith("regularity")), "s"),
        }


# ---------------------------------------------------------------------------
# point_eval
# ---------------------------------------------------------------------------


def _reference_sin(x, p):
    """sin_p from scipy's betaincinv, with its own argument reduction.

    F_p(y) = (pi_p / 2) I(y^p; 1/p, 1 - 1/p), so on the quarter period
    sin_p(x) = I^-1(2x / pi_p)^(1/p); the half period is symmetric about
    its midpoint and the second half period is the negative of the first.
    """
    from scipy.special import betaincinv

    tau = np.mod(x / ptrig.pi_p(p), 2.0)
    sign = np.where(tau >= 1.0, -1.0, 1.0)
    t = np.where(tau >= 1.0, tau - 1.0, tau)
    q = np.minimum(t, 1.0 - t)
    return sign * betaincinv(1.0 / p, 1.0 - 1.0 / p, 2.0 * q) ** (1.0 / p)


def _reference_cos_sign(x, p):
    tau = np.mod(x / ptrig.pi_p(p), 2.0)
    return np.where((tau > 0.5) & (tau < 1.5), -1.0, 1.0)


def _reference_F(y, p):
    """F_p from scipy's betainc.

    Above y = 1/2 the complement I(x; a, b) = 1 - I(1 - x; b, a) is used,
    with 1 - y^p formed from the exact 1 - y: rounding y^p near 1 would
    cost the reference more accuracy than the gate allows.
    """
    from scipy.special import betainc

    a, b = 1.0 / p, 1.0 - 1.0 / p
    with np.errstate(divide="ignore"):
        one_minus_yp = -np.expm1(p * np.log1p(-(1.0 - y)))
    near_one = 1.0 - betainc(b, a, one_minus_yp)
    return 0.5 * ptrig.pi_p(p) * np.where(y > 0.5, near_one, betainc(a, b, y**p))


class PointEval:
    """sin_p, cos_p on 2000 x over +-4 periods and F_p on 2000 y, per p."""

    name = "point_eval"
    setup_code = "import ptrig"
    call_statistic = staticmethod(statistics.median)

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]

    def setup(self):
        return None

    def run_round(self, index, tracer=None):
        rng = round_rng(self.seed, index)
        n = self.size["eval_n"]
        ops = []
        for p in EVAL_EXPONENTS:
            period = 2.0 * ptrig.pi_p(p)
            x = rng.uniform(-4.0 * period, 4.0 * period, n)
            y = rng.uniform(0.0, 1.0, n)
            ops.append(timed(f"sin_p@{p:g}", index, ptrig.sin_p, x, p))
            ops.append(timed(f"cos_p@{p:g}", index, ptrig.cos_p, x, p))
            ops.append(timed(f"incomplete_F@{p:g}", index, ptrig.incomplete_F, y, p))
        return ops

    def check(self, op):
        x, p = op.args
        if op.label.startswith("sin_p"):
            return bool(np.max(np.abs(op.output - _reference_sin(x, p))) <= SIN_TOL)
        if op.label.startswith("cos_p"):
            s = _reference_sin(x, p)
            c = op.output
            identity = np.abs(np.abs(s) ** p + np.abs(c) ** p - 1.0)
            signs = (np.abs(c) < 1e-6) | (np.sign(c) == _reference_cos_sign(x, p))
            return bool(np.max(identity) <= IDENTITY_TOL and signs.all())
        ref = _reference_F(x, p)
        rel = np.abs(op.output - ref) / np.maximum(ref, np.finfo(float).tiny)
        return bool(np.max(np.where(ref > 0.0, rel, np.abs(op.output))) <= F_REL_TOL)

    def gate_only(self):
        return []

    def named_metrics(self, rounds):
        points = sum(np.size(op.args[0]) for _, ops in rounds for op in ops)
        wall = sum(w for w, _ in rounds)
        return {"eval_points_per_s": (points / wall, "points/s")}


# ---------------------------------------------------------------------------
# pcosine_transform
# ---------------------------------------------------------------------------


class PcosineTransform:
    """Operator built at set-up; 250 expansions of decaying cosine vectors."""

    name = "pcosine_transform"
    # every expansion does the same arithmetic whatever the vector, so the
    # spread of a thousand repeats is load, and a low percentile is steady
    call_statistic = staticmethod(fifth_percentile)

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]
        self.p = float(seeded(seed, 2).uniform(P0_BRACKET[0], P1_BRACKET[1]))
        self.N = self.size["operator_N"]

    @property
    def setup_code(self):
        return (
            "import ptrig\n"
            f"ptrig.build_truncated_operator({self.p!r}, {self.N})"
        )

    def setup(self):
        return ptrig.build_truncated_operator(self.p, self.N)

    def run_round(self, index, tracer=None):
        rng = round_rng(self.seed, index)
        decay = np.arange(1, self.N + 1, dtype=float) ** -1.5
        ops = []
        for _ in range(self.size["expansions"]):
            v = ptrig.CosineVector(rng.standard_normal(self.N) * decay)
            op = timed("expand", index, ptrig.expand_in_pcosine, v, self.p, self.N)
            if op.error is None and index > 0:
                # keep what the check needs; whole vectors of every round would
                # make this process's peak RSS depend on how many rounds fit
                coeffs, residual = op.output
                op.output = (bool(np.all(np.isfinite(coeffs.coeffs))), residual)
            op.args = ()
            ops.append(op)
        return ops

    def check(self, op):
        finite, residual = op.output
        if isinstance(finite, ptrig.CosineVector):
            finite = bool(np.all(np.isfinite(finite.coeffs)))
        return bool(finite and residual <= RESIDUAL_TOL)

    def gate_only(self):
        """Two operator columns against direct quadrature, at small N."""
        ops = []
        for n in (1, 3):
            op = timed("reconstruct", -1, ptrig.reconstruct_check, self.p, n,
                       self.size["reconstruct_N"])
            op.passed = op.error is None and op.output <= RECONSTRUCT_TOL
            ops.append(op)
        return ops

    def named_metrics(self, rounds):
        expansions = sum(len(ops) for _, ops in rounds)
        wall = sum(w for w, _ in rounds)
        return {"expand_per_s": (expansions / wall, "expansions/s")}


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------


def run_cli(argv, trace_out=None):
    """One `ptrig` invocation in a fresh interpreter; (rc, stdout, stderr).

    With trace_out the child runs under the span recorder and writes its
    layer summary there.
    """
    if trace_out is None:
        cmd = [sys.executable, "-m", "ptrig.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_out), *argv]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class CliOneshot:
    """The nine-command script, one process per command, one at a time."""

    name = "cli_oneshot"
    setup_code = "import ptrig.cli"
    call_statistic = staticmethod(statistics.median)

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]
        self._validator = None
        self._first = {}

    def setup(self):
        return None

    def run_round(self, index, tracer=None):
        rng = round_rng(self.seed, index)
        ops = []
        for k in rng.permutation(len(CLI_SCRIPT)):
            label, line = CLI_SCRIPT[k]
            argv = line.split()
            if tracer is None:
                ops.append(timed(label, index, run_cli, argv))
                continue
            out = BENCH / "out" / f"cli_child_{os.getpid()}.json"
            with tracer.span(f"cli.process.{label}") as idx:
                op = timed(label, index, run_cli, argv, out)
            if out.exists():  # absent only when the child died before main()
                tracer.graft(idx, json.loads(out.read_text()))
                out.unlink()
            if op.error is None:
                tracer.counts["cli.bytes_out"] += len(op.output[1])
            op.args = (argv,)
            ops.append(op)
        return ops

    def _validate(self, stdout):
        if self._validator is None:
            import jsonschema

            schema = json.loads(SCHEMA.read_text())
            self._validator = jsonschema.Draft7Validator(schema)
        records = [json.loads(line) for line in stdout.decode().splitlines()]
        for rec in records:
            self._validator.validate(rec)
        return records

    def check(self, op):
        rc, stdout, _ = op.output
        if rc != 0:
            return False
        first = self._first.setdefault(op.label, stdout)
        if stdout != first:  # byte-identical under SOURCE_DATE_EPOCH
            return False
        if first is stdout:
            records = self._validate(stdout)
            if not records:
                return False
            if op.label == "thresholds":
                names = {r["params"]["name"]: r["results"]["within_reference"] for r in records}
                return names == {"p0": True, "p1": True}
        return True

    def gate_only(self):
        return []

    def named_metrics(self, rounds):
        return {
            "cli_call_s": (statistics.median(op.seconds for _, ops in rounds for op in ops), "s"),
            "cli_script_s": (statistics.median(w for w, _ in rounds), "s"),
        }


WORKLOADS = {
    cls.name: cls for cls in (CriterionScan, PointEval, PcosineTransform, CliOneshot)
}
