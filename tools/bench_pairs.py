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
lower, whether every pair's round-0 digests were equal, whether the
two sides' traced counts were equal (`counts_equal`), and how many runs
of each side reported failed operations (`runs_with_failures`).

A run that exits non-zero, or prints no result line, ends the
comparison: the report collected so far is written first, with a
`failed_run` entry (its side, workload, trace flag, exit status, the
last 40 lines of its stderr, and its `failures` list when it printed
one), and the script exits with status 1.
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
SIDES = ("parent", "change")


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


class RunFailed(Exception):
    """A `run.py` that exited non-zero or printed no result line."""

    def __init__(self, record: dict):
        super().__init__(record["workload"])
        self.record = record


def printed_failures(lines):
    """The `failures` list of run.py's detail line, if it printed one."""
    for line in lines:
        try:
            detail = json.loads(line)
        except ValueError:
            continue
        if isinstance(detail, dict) and "failures" in detail:
            return detail["failures"]
    return None


def run_py(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One `run.py` in tree: its detail line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed({"workload": workload, "trace": trace, "exit_status": proc.returncode,
                         "stderr_tail": proc.stderr.splitlines()[-40:],
                         "failures": printed_failures(lines)})
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
    """Medians and counts over the complete pairs; a pair or traced run
    cut short by a failed run is left out of the comparisons."""
    runs = {side: [pair[side] for pair in pairs if side in pair]
            + ([traced[side]] if side in traced else []) for side in SIDES}
    pairs = [pair for pair in pairs if all(side in pair for side in SIDES)]
    out = {"complete_pairs": len(pairs),
           "digests_equal": all(pair["parent"]["digest"] == pair["change"]["digest"]
                                for pair in pairs),
           "counts_equal": (traced["parent"]["counts"] == traced["change"]["counts"]
                            if len(traced) == len(SIDES) else None),
           "runs_with_failures": {side: sum(run["failed"] > 0 for run in runs[side])
                                  for side in SIDES}}
    for name in METRICS if pairs else ():
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
    failed_run = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        try:
            for workload, n in args.pairs.items():
                pairs, traced = [], {}
                workloads[workload] = {"pairs": pairs, "traced": traced}
                for i in range(n):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pair = {"order": "-".join(order)}
                    pairs.append(pair)
                    for side in order:
                        run = run_once(trees[side], workload, args.seed, args.seconds)
                        environment = environment or run["environment"]
                        pair[side] = {k: v for k, v in run.items() if k != "environment"}
                        print(f"{workload} pair {i} {side}: "
                              + ", ".join(f"{k} {run[k]:.4g}" for k in METRICS), flush=True)
                for side in SIDES:
                    traced[side] = traced_counts(trees[side], workload, args.seed, args.seconds)
                print(f"{workload} traced counts equal: "
                      f"{summary(pairs, traced)['counts_equal']}", flush=True)
        except RunFailed as exc:
            failed_run = {"side": side, **exc.record}
            print(f"bench_pairs: {workload} failed on the {side} side "
                  f"(exit status {exc.record['exit_status']})", file=sys.stderr, flush=True)
    for record in workloads.values():
        record["summary"] = summary(record["pairs"], record["traced"])

    def sha(side):
        """src sha256 of side, as its first recorded run reported it."""
        return next((pair[side]["src_sha256"] for record in workloads.values()
                     for pair in record["pairs"] if side in pair), None)

    report = {
        "parent": {"commit": parent_commit, "src_sha256": sha("parent")},
        "change": {"commit": change_commit, "src_dirty": dirty, "src_sha256": sha("change")},
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {k: v for k, v in (environment or {}).items()
                        if k not in ("commit", "src_sha256")},
        "workloads": workloads,
    }
    if failed_run:
        report["failed_run"] = failed_run
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed_run else 0


if __name__ == "__main__":
    sys.exit(main())
