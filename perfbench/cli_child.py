"""Run one `ptrig` CLI invocation under the span recorder.

Usage: python3 perfbench/cli_child.py SUMMARY_JSON ARG...

Behaves like ``python3 -m ptrig.cli ARG...`` (same stdout, same exit code)
and afterwards writes the process's spans and work counters to
SUMMARY_JSON, with the moment ptrig.cli had been imported, for the traced
cli_oneshot run (see ``Tracer.graft``).
"""

import time

import ptrig.cli

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402  (after the timestamp: harness imports are not start-up)
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = ptrig.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as handle:
            json.dump({"imported_at": IMPORTED_AT, "counts": tracer.counts_now(),
                       **tracer.columns()}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
