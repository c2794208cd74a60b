"""Set-up probe for run.py: in a fresh interpreter, time import lpmc plus one
desk-size round of a workload, and print the seconds. The round's outputs
are checked by run.py's own warm-up round, not here.

    python3 perfbench/setup_child.py <workload> <sample index>
"""

import sys
import time

import run  # pins the BLAS thread count before numpy loads

run.use_repo_sources()
started = time.perf_counter()
from workloads import WORKLOADS, master_seeds  # noqa: E402  (imports lpmc)

WORKLOADS[sys.argv[1]].run_round(master_seeds("set-up", sys.argv[2], 1)[0],
                                 desk=True)
print(time.perf_counter() - started)
