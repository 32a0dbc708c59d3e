"""Run the benchmark on a parent commit and on this checkout in alternating pairs.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \
        --seed 20151104 --seconds 20 --pairs point_eval=5 criterion_scan=1 ...

The committed files of REV are exported (`git archive`) into a temporary
directory, so the parent runs exactly what it committed and the
repository's own state is not touched.  Each pair runs
`perfbench/run.py --trace 0` once in each tree, one after the other; the
order alternates from pair to pair (the parent goes first in pairs 0, 2,
...), so that slow drift in the load of a shared machine falls on both
sides alike.  perfbench/ itself is not modified or imported.

After a workload's pairs, `perfbench/run.py --trace 1` runs once in each
tree, and its count-unit per-layer metrics (counters such as
`core.invert.points`, which repeat exactly for a given seed) are kept.

The output file holds, per workload, each run's three end-to-end metrics,
its round-0 digest and its failure count, each side's traced counts, and
for each side its commit and the sha256 of its src/ (as run.py reports
it).  A summary per workload gives each metric's median on both sides,
the parent/change ratio of the medians, in how many pairs the change was
lower, whether every pair's round-0 digests were equal, and whether the
two sides' traced counts were equal (`counts_equal`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "peak_rss_mb", "round_s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=20151104)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N",
                        help="pairs per workload, e.g. point_eval=5 cli_oneshot=1")
    args = parser.parse_args(argv)
    args.pairs = {name: int(n) for name, n in (item.split("=", 1) for item in args.pairs)}
    return args


def git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> None:
    """Extract the committed tree of rev into dest."""
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)


def run_py(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One `run.py` in tree: its detail line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {workload} in {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` in tree: its metrics, digest, failures, src sha256."""
    detail, result = run_py(tree, workload, seed, seconds, 0)
    return {
        **{name: result["metrics"][name]["value"] for name in METRICS},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digest": detail["digest"],
        "src_sha256": detail["environment"]["src_sha256"],
        "environment": detail["environment"],
    }


def traced_counts(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 1` in tree: its count-unit metrics and failures."""
    _, result = run_py(tree, workload, seed, seconds, 1)
    return {"failed": result["failed"],
            "counts": {name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count"}}


def summary(pairs: list, traced: dict) -> dict:
    out = {"digests_equal": all(pair["parent"]["digest"] == pair["change"]["digest"]
                                for pair in pairs),
           "counts_equal": traced["parent"]["counts"] == traced["change"]["counts"]}
    for name in METRICS:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "ratio_parent_over_change": statistics.median(parent) / statistics.median(change),
            "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_commit = git("rev-parse", args.parent).decode().strip()
    change_commit = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--", "src").strip())
    workloads = {}
    environment = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, n in args.pairs.items():
            pairs = []
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"order": "-".join(order)}
                for side in order:
                    run = run_once(trees[side], workload, args.seed, args.seconds)
                    environment = environment or run["environment"]
                    pair[side] = {k: v for k, v in run.items() if k != "environment"}
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{k} {run[k]:.4g}" for k in METRICS), flush=True)
                pairs.append(pair)
            traced = {side: traced_counts(trees[side], workload, args.seed, args.seconds)
                      for side in ("parent", "change")}
            workloads[workload] = {"pairs": pairs, "traced": traced,
                                   "summary": summary(pairs, traced)}
            print(f"{workload} traced counts equal: "
                  f"{workloads[workload]['summary']['counts_equal']}", flush=True)
    report = {
        "parent": {"commit": parent_commit,
                   "src_sha256": next(iter(workloads.values()))["pairs"][0]["parent"]["src_sha256"]},
        "change": {"commit": change_commit, "src_dirty": dirty,
                   "src_sha256": next(iter(workloads.values()))["pairs"][0]["change"]["src_sha256"]},
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {k: v for k, v in environment.items()
                        if k not in ("commit", "src_sha256")},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
