"""One set-up in a fresh process, for ``setup_s``.

Usage: python3 setup_child.py WORKLOAD SEED

Prints ``time.monotonic()`` after set-up; the parent subtracts the moment it
started this process, so the figure covers interpreter start, imports, model
build and input generation.
"""

import sys
import time

import workloads

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
