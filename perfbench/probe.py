"""One set-up probe: time a fresh interpreter's set-up, then nine
calibration passes, and print the set-up and the passes' median as one
JSON line.

    python3 perfbench/probe.py <workload> <seed>

Set-up is importing qtoroidal.cli (which pulls in every layer and the
standard-library modules they use) plus building the workload's fixed
inputs and op list.  ``run.py`` starts this script several times per run.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def main(workload, seed):
    import qtoroidal.cli  # noqa: F401
    t1 = perf_counter()
    import workloads
    workloads.fixed_inputs()
    workloads.op_list(workload, seed)
    t2 = perf_counter()
    import json
    import statistics
    from run import calibrate
    cal = statistics.median(calibrate() for _ in range(9))
    print(json.dumps({"import_s": t1 - T0, "build_s": t2 - t1,
                      "cal_s": cal}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
