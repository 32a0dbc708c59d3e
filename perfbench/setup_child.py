"""One set-up sample in a fresh interpreter.

Usage: python3 perfbench/setup_child.py CODE

Times CODE (the workload's import plus its declared set-up) from the
first statement of this interpreter and prints the seconds it took.
"""

import sys
import time

t0 = time.perf_counter()
exec(sys.argv[1])
print(repr(time.perf_counter() - t0))
