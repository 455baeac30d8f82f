"""Set-up probe: a fresh interpreter imports the CLI and draws one workload's inputs.

Usage: python3 probe.py WORKLOAD SEED

Prints the inputs' digest as soon as they exist; the caller times the
interval from process start to that line.
"""

import sys

import coulomb_chain.cli  # noqa: F401  (the import every coulomb-chain process pays)
import workloads

print(workloads.digest(workloads.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]))), flush=True)
