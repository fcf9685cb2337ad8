"""Cold set-up probe, run in a fresh interpreter by run.py.

Usage: PYTHONPATH=src python3 perfbench/probe.py CONFIG [OVERRIDE ...]

Imports `gaps`, loads CONFIG with the overrides, builds its environment,
and prints CLOCK_MONOTONIC so the parent can time the whole set-up from
before the interpreter started.
"""

import sys
import time

import gaps.cli

gaps.cli.build_env(gaps.cli.load_config(sys.argv[1], sys.argv[2:]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
