"""Record the known answers: run every op in every workload's catalogue
once and store the digest of its canonical result in ``answers.json``,
which is written afresh.

Run from the root of a source checkout, on a commit whose results are
trusted:

    PYTHONHASHSEED=0 python3 perfbench/record.py

An op whose verdict is wrong, or whose result holds a float, is reported
and gets no answer, so the benchmark would count it as failed.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

ANSWERS = os.path.join(BENCH_DIR, "answers.json")


def record(workload, answers):
    inputs = workloads.fixed_inputs()
    bad = 0
    for kind, params in workloads.catalogue(workload):
        run, check = workloads.KINDS[kind]
        key = workloads.op_key(kind, params)
        t0 = perf_counter()
        verdict, body = check(run(tracing.NoSpans, inputs, *params), params)
        got, floats = workloads.digest(body)
        if verdict and not floats:
            answers[key] = got
        else:
            bad += 1
            print("BAD %s verdict=%s floats=%s" % (key, verdict, floats[:1]))
        print("%-60s %.3fs" % (key, perf_counter() - t0), flush=True)
    return bad


def main():
    answers = {}
    bad = sum(record(w, answers) for w in workloads.WORKLOADS)
    with open(ANSWERS, "w") as f:
        json.dump(answers, f, indent=0, sort_keys=True)
        f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
