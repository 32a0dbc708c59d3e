"""Run the benchmark's correctness gates over many rounds and seeds, untimed.

Usage (from the root of a checkout):

    python3 tools/gate_scan.py --seeds 1 20151104 --rounds 50 --workloads point_eval

For each workload and seed this builds the full-size workload of
perfbench/workloads.py, runs its set-up, then rounds 0..R-1, checking each
round's ops as soon as the round returns with perfbench/run.py's `gate` (the
workload's own `check`), and last its `gate_only` ops.  Each op that raised
or failed its check is printed as one line: workload, seed, round, label and
error.  The exit status is 1 if there was any, else 0.

Nothing is timed, so a scan reaches round indices (and so inputs) that a timed
run only reaches on a fast machine.  --root names the checkout whose src/ and
perfbench/ are used (default: the one holding this script), so the same scan
can be run on an exported older commit.  perfbench/ is imported, not modified.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

WORKLOADS = ("criterion_scan", "point_eval", "pcosine_transform", "cli_oneshot")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 20151104])
    parser.add_argument("--rounds", type=int, default=4, help="rounds per workload and seed")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to scan (default: this one)")
    return parser.parse_args(argv)


def import_bench(root: Path):
    """perfbench's run and workloads modules of `root`, with ptrig from root/src."""
    sys.path.insert(0, str(root.resolve() / "perfbench"))
    import run

    run.import_library()
    import workloads

    return run, workloads


def scan(run, workloads, name, seed, rounds):
    """Failing ops of one workload at one seed, as (round, label, error)."""
    wl = workloads.WORKLOADS[name](seed, "full")
    wl.setup()
    ops = []
    for index in range(rounds):
        round_ops = wl.run_round(index)
        run.gate(wl, round_ops)  # sets op.passed and, for a crashing check, op.error
        ops += [op for op in round_ops if not op.passed]
    ops += [op for op in wl.gate_only() if not op.passed]  # judged as they ran
    return [(op.round, op.label, op.error or "check failed") for op in ops]


def main(argv=None) -> int:
    args = parse_args(argv)
    run, workloads = import_bench(args.root)
    status = 0
    for name in args.workloads:
        for seed in args.seeds:
            bad = scan(run, workloads, name, seed, args.rounds)
            for index, label, error in bad:
                print(f"FAIL {name} seed={seed} round={index} {label}: {error}")
            print(f"{'ok  ' if not bad else 'FAIL'} {name} seed={seed}: "
                  f"{args.rounds} rounds, {len(bad)} failing ops", flush=True)
            status |= bool(bad)
    return status


if __name__ == "__main__":
    sys.exit(main())
