"""Set-up probe: build one workload's inputs and warm it up, then exit.

run.py times several of these fresh interpreters and reports the median as
setup_s.  Usage: python3 perfbench/probe.py WORKLOAD SEED SIZE
"""

import sys

import run

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    wl = run.import_workloads()
    wl.make(name, seed, wl.SIZES[size]).warm_up()
