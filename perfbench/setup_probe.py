"""
One fresh-process measurement of a workload's set-up: importing hmflab
(with numpy and scipy), generating the workload's configs for a seed and
parsing them.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

from run import pin_blas, use_source_tree  # noqa: E402

pin_blas()
use_source_tree()
import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0, Path(sys.argv[3]))
print(time.perf_counter() - t0)
