"""Benchmark for ptrig: four workloads, end-to-end metrics, a traced run per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of criterion_scan, point_eval, pcosine_transform, cli_oneshot.
The library is imported from this checkout's src/ (nothing is installed).
Each invocation is a fresh interpreter, so ptrig's caches start empty as
they do for a user.  The run measures rounds of the workload for S seconds
(at least one round), then checks every output, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
The line before it holds the details: environment, digest, sample counts
and the workload's own named figures.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json).  --trace 1
is a separate run: S/2 seconds untraced, then, from emptied caches, the
set-up again and S/2 seconds of the same rounds with spans recorded around
every layer's entry points.  It reports the per-layer metrics, all taken
from those spans, and the tracing overhead.  Spans are written to
perfbench/out/.  --size small shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# set-up samples per run, of which setup_s is the median.  The operator
# build takes seconds, an import does not.
SETUP_SAMPLES = {"pcosine_transform": 3}
DEFAULT_SETUP_SAMPLES = 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "criterion_scan", "point_eval", "pcosine_transform", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def import_library():
    """Import ptrig from this checkout's src/, refusing any other copy."""
    if not (SRC / "ptrig" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ptrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import ptrig

    if Path(ptrig.__file__).resolve().parent != (SRC / "ptrig").resolve():
        sys.exit(f"perfbench: imported ptrig from {ptrig.__file__}, not from {SRC}")
    return ptrig


def environment(seed):
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "seed": seed,
        "commit": commit,
        "src_sha256": source_digest(),
    }


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unreadable."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def source_digest():
    """sha256 over the library sources, which identifies the code measured."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "ptrig").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup_samples(wl, n):
    """Import plus declared set-up, each in its own fresh interpreter."""
    from workloads import child_env

    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_child.py"), wl.setup_code],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_loop(wl, seconds, tracer=None, on_first=None, between=None):
    """Rounds until they have taken `seconds` (at least one): [(wall, ops)].

    between(share), if given, runs after each round with the share of
    `seconds` done so far; its time does not count toward `seconds`.
    """
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        index = len(rounds)
        t0 = time.perf_counter()
        if tracer is None:
            ops = wl.run_round(index)
        else:
            with tracer.span("bench.round"):
                ops = wl.run_round(index, tracer)
        wall = time.perf_counter() - t0
        rounds.append((wall, ops))
        spent += wall
        if on_first is not None and index == 0:
            on_first()
        if between is not None:
            between(min(spent / seconds, 1.0))
    return rounds


def gate(wl, ops):
    """Check every op; returns the number that raised or failed a check."""
    failed = 0
    for op in ops:
        if op.error is None:
            try:
                op.passed = bool(wl.check(op))
            except Exception as exc:  # a crashing check is a failed check
                op.passed = False
                op.error = f"check raised {type(exc).__name__}: {exc}"
        failed += not op.passed
    return failed


def high_percentile(values):
    """The highest percentile with at least ten samples above it, or None."""
    values = sorted(values)
    k = len(values) - 11
    if k < 0:
        return None
    return {"percentile": 100.0 * (k + 1) / len(values), "value": values[k]}


def round_time(wl, rounds):
    """Wall time of one round: the sum of a per-label estimate of each call.

    Calls with one label do the same work on statistically equal inputs.
    Each label is estimated by the workload's own statistic of its repeats
    (``call_statistic`` in workloads.py, chosen from measured spreads).
    """
    times = {}
    for _, ops in rounds:
        for op in ops:
            times.setdefault(op.label, []).append(op.seconds)
    cost = {label: wl.call_statistic(t) for label, t in times.items()}
    return sum(cost[op.label] for op in rounds[0][1])


def end_to_end(wl, rounds, setups):
    walls = [wall for wall, _ in rounds]
    calls = [op.seconds for _, ops in rounds for op in ops]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "round_s": (round_time(wl, rounds), "s"),
    }
    samples = {
        "setup_samples_s": setups,
        "rounds": len(walls),
        "calls": len(calls),
        "round_median_s": statistics.median(walls),
        "call_median_s": statistics.median(calls),
        "call_high_s": high_percentile(calls),
    }
    return metrics, samples


def clear_caches():
    """Empty every cache in ptrig, as a fresh interpreter has them."""
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "ptrig" or mod_name.startswith("ptrig.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def traced_phase(wl, seconds):
    """Set-up and rounds with spans recorded: (rounds, counts, tracer).

    The counts are those of the set-up and the first round, whose inputs
    depend on the seed alone, so they repeat exactly; how many rounds fit
    in the time does not.
    """
    from tracer import Tracer

    tracer = Tracer()
    first = {}
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup()
        rounds = run_loop(wl, seconds, tracer,
                          on_first=lambda: first.update(tracer.counts_now()))
    finally:
        tracer.uninstall()
    return rounds, first, tracer


def per_layer(untraced, traced, counts, tracer):
    """The per-layer metrics, all from the traced set-up and rounds.

    Per-call and per-point costs average over every traced call of the
    named function; ``*.self_s`` and the self shares cover the traced
    rounds only (not the set-up), per round.  A layer the workload does
    not reach reads 0.
    """
    from tracer import SpanTable, p_key
    from workloads import CLI_SCRIPT, EVAL_EXPONENTS

    c = counts
    t = SpanTable(tracer)
    in_rounds = t.under("bench.round")
    n_rounds = len(traced)

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    def per_call(name, key=None):
        mask = t.named(name, key)
        return ratio(t.dur[mask].sum(), mask.sum())

    def per_point(name, key=None):
        mask = t.named(name, key)
        return ratio(t.dur[mask].sum(), t.work[mask].sum())

    def self_per_round(name):
        return ratio(t.self_s[t.named(name) & in_rounds].sum(), n_rounds)

    metrics = {
        "core.invert.points": (c["core.invert.points"], "count"),
        "core.invert.F_evals_per_point": (
            ratio(c["core.invert.F_nodes"], c["core.invert.points"]), "count"),
        "fast_eval.table_builds": (c["fast_eval.table_builds"], "count"),
        "fast_eval.table_build.nodes": (
            ratio(c["fast_eval.table_build.nodes_total"], c["fast_eval.table_builds"]), "count"),
        "fast_eval.scaled.points": (c["fast_eval.scaled.points"], "count"),
        "quadrature.panels.calls": (c["quadrature.panels.calls"], "count"),
        "quadrature.panels.points_per_call": (
            ratio(c["quadrature.panels.points"], c["quadrature.panels.calls"]), "count"),
        "fourier.coeff_cache.hits": (c["fourier.coeff_cache.hits"], "count"),
        "fourier.coeff_cache.misses": (c["fourier.coeff_cache.misses"], "count"),
        "basis_operator.build.entries": (
            ratio(c["basis_operator.build.entries_total"], c["basis_operator.builds"]), "count"),
    }
    traced_wall = sum(wall for wall, _ in traced)
    for layer, seconds in t.layer_self(in_rounds).items():
        metrics[f"{layer}.self_share"] = (seconds / traced_wall, "ratio")
    # round i of both phases had the same inputs and started from the same
    # cache state, so matched rounds compare like with like
    k = min(len(untraced), len(traced))
    metrics["trace.overhead"] = (
        sum(w for w, _ in traced[:k]) / sum(w for w, _ in untraced[:k]), "ratio")

    for p in EVAL_EXPONENTS:
        key = p_key(p)
        metrics[f"core.invert.us_per_point.{key}"] = (
            1e6 * per_point("core.invert_quarter", key), "us")
        metrics[f"core.invert.F_evals_per_point.{key}"] = (
            ratio(c[f"core.invert.F_nodes.{key}"], c[f"core.invert.points.{key}"]), "count")
    metrics["core.incomplete_F.us_per_point"] = (1e6 * per_point("core.incomplete_F"), "us")

    metrics["fast_eval.table_build_s"] = (per_call("fast_eval.FastPTrig.__init__"), "s")
    scaled = t.named("fast_eval.FastPTrig.cos_scaled") | t.named("fast_eval.FastPTrig.sin_scaled")
    metrics["fast_eval.scaled.ns_per_point"] = (
        1e9 * ratio(t.dur[scaled].sum(), t.work[scaled].sum()), "ns")

    # cold coefficients are those computed by quadrature; a table built
    # for the first coefficient at an exponent is fast_eval's cost
    cold = t.named("fourier._coeff_quadrature")
    nested_builds = t.named("fast_eval.FastPTrig.__init__") & t.with_ancestor(
        "fourier._coeff_quadrature")
    metrics["fourier.coeff.ms_per_coeff"] = (
        1e3 * ratio(t.dur[cold].sum() - t.dur[nested_builds].sum(), cold.sum()), "ms")
    metrics["quadrature.panels.self_s"] = (self_per_round("quadrature.integrate_panels"), "s")
    metrics["fourier.criterion.self_s"] = (self_per_round("fourier.basis_criterion"), "s")
    metrics["regularity.report.self_s"] = (self_per_round("regularity.regularity_report"), "s")

    builds = t.named("basis_operator.build_truncated_operator")
    cold_builds = builds & t.with_descendant("fourier._coeff_quadrature")
    warm_builds = builds & ~cold_builds
    metrics["basis_operator.build_cold_s"] = (
        ratio(t.dur[cold_builds].sum(), cold_builds.sum()), "s")
    metrics["basis_operator.build.ms"] = (
        1e3 * ratio(t.dur[warm_builds].sum(), warm_builds.sum()), "ms")
    metrics["basis_operator.matvec.ms"] = (
        1e3 * per_call("basis_operator.TruncatedBasisOp.matvec"), "ms")
    expands = t.named("basis_operator.expand_in_pcosine")
    metrics["basis_operator.expand.self_ms"] = (
        1e3 * ratio(t.self_s[expands].sum(), expands.sum()), "ms")

    metrics["thresholds.solve.ms"] = (
        1e3 * (per_call("thresholds.solve_lower_threshold")
               + per_call("thresholds.solve_upper_threshold")), "ms")
    metrics["thresholds.f_evals"] = (c["thresholds.f_evals"], "count")

    metrics["cli.startup_s"] = (per_call("cli.startup"), "s")
    for label, _ in CLI_SCRIPT:
        metrics[f"cli.call_s.{label}"] = (per_call(f"cli.process.{label}"), "s")
    metrics["cli.bytes_out"] = (c["cli.bytes_out"], "count")
    return metrics


def as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    import_library()
    from collections import defaultdict

    from workloads import WORKLOADS, digest

    wl = WORKLOADS[args.workload](args.seed, args.size)
    detail = {"workload": wl.name, "size": args.size, "trace": args.trace,
              "environment": environment(args.seed)}

    setups = []
    if not args.trace:
        n_setup = 1 if args.size == "small" else SETUP_SAMPLES.get(wl.name, DEFAULT_SETUP_SAMPLES)
        setups = setup_samples(wl, 1)

        def spread_setups(share):
            """The other set-up samples, spread between the rounds as they
            run: load on a shared machine comes in phases, and samples
            further apart are likelier to see a quiet one (rounds too)."""
            due = 1 + int(share * (n_setup - 1))
            if due > len(setups):
                setups.extend(setup_samples(wl, due - len(setups)))
    t0 = time.perf_counter()
    wl.setup()
    detail["in_process_setup_s"] = time.perf_counter() - t0

    attempted = failed = 0
    failures = []
    if not args.trace:
        rounds = run_loop(wl, args.seconds, between=spread_setups)
        metrics, detail["samples"] = end_to_end(wl, rounds, setups)
        all_rounds = rounds
    else:
        OUT.mkdir(exist_ok=True)  # span files, and cli_oneshot's child summaries
        untraced = run_loop(wl, args.seconds / 2.0)
        clear_caches()
        traced, first_counts, tracer = traced_phase(wl, args.seconds / 2.0)
        metrics = per_layer(untraced, traced, defaultdict(int, first_counts), tracer)
        detail["samples"] = {"untraced_round_s": [wall for wall, _ in untraced],
                             "traced_round_s": [wall for wall, _ in traced],
                             "spans": len(tracer.start)}
        span_file = OUT / f"spans_{wl.name}_seed{args.seed}.npz"
        tracer.dump(span_file, {"workload": wl.name, "seed": args.seed, "rounds": len(traced)})
        detail["span_file"] = str(span_file.relative_to(ROOT))
        # tracing must not change what the library returns
        attempted += 1
        if digest(traced[0][1]) != digest(untraced[0][1]):
            failed += 1
            failures.append("traced round 0: outputs differ from the untraced round 0")
        all_rounds = untraced + traced

    ops = [op for _, round_ops in all_rounds for op in round_ops]
    detail["digest"] = digest(all_rounds[0][1])
    gate_ops = wl.gate_only()
    attempted += len(ops) + len(gate_ops)
    failed += gate(wl, ops) + sum(not op.passed for op in gate_ops)
    failures += [f"{op.label}[{op.round}]: {op.error or 'check failed'}"
                 for op in ops + gate_ops if not op.passed]
    detail["failures"] = failures[:20]
    detail["failed_frac"] = failed / attempted
    if not args.trace:
        detail["named"] = as_json(wl.named_metrics(all_rounds))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
