"""Smoke test for the benchmark.

Usage (from the root of a checkout): python3 perfbench/smoke.py

For every workload in BENCHMARK.json, at the reduced size: an untraced run
must pass its correctness gate and report exactly the end-to-end metrics
with their units; two traced runs with one seed must report exactly the
per-layer metrics, the same counts and the same output digest as the
untraced run.  Finally the benchmark must refuse to run, with a non-zero
exit and no result line, in a directory without the library sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20151104


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(workload, trace):
    proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "small"])
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(where, got, declared):
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in got["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong = sorted(k for k in set(want) & set(have) if want[k] != have[k])
        raise AssertionError(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in got["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            raise AssertionError(f"{where}: {name} is not a number: {m['value']!r}")


def check_result(where, detail, got):
    if set(got) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(got)}")
    if not got["correct"] or got["failed"] != 0 or got["attempted"] < 1:
        raise AssertionError(f"{where}: gate failed: {detail.get('failures')}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for wl in (w["name"] for w in spec["workloads"]):
        detail0, res0 = result(wl, 0)
        check_result(f"{wl} untraced", detail0, res0)
        check_metrics(f"{wl} untraced", res0, spec["end_to_end"])
        traced = [result(wl, 1) for _ in range(2)]
        for k, (detail, res) in enumerate(traced):
            check_result(f"{wl} traced #{k}", detail, res)
            check_metrics(f"{wl} traced #{k}", res, spec["per_layer"])
            if detail["digest"] != detail0["digest"]:
                raise AssertionError(f"{wl}: digest differs between runs with one seed")
        (_, a), (_, b) = traced
        differ = sorted(n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"])
        if differ:
            raise AssertionError(f"{wl}: counts differ between runs with one seed: {differ}")
        print(f"ok  {wl}: {res0['attempted']} ops checked, digest {detail0['digest'][:12]}")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "point_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
