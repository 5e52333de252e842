"""qtoroidal benchmark: seeded, closed-loop, single-thread workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chars --seed 1 --seconds 20 --trace 0

Workloads: chars, relations, fusion, hecke (see ``workloads.py``).  One
caller runs the seeded op list, each op after the previous one returns.
Every op is checked exactly: its verdict, a digest of its canonical result
against the known answer in ``answers.json`` and a guard against any
float in the result.

``--trace 0`` times rounds of the op list, at least MIN_ROUNDS and then
until the next round would end past ``--seconds``.  The CPU speed of the
shared host swings by up to 1.9x for tens of seconds at a time, which no
run length averages out.  So the host's speed is read from a fixed
stdlib-only calibration pass (``calibrate``), run CAL_BRACKET times
between ops and every TICK_S inside an op (``Speedometer``), and each
op's latency is rescaled to a host on which one pass takes CAL_REF_S:

    latency * CAL_REF_S / mean(passes before, during and after the op)

An op's latency is the median of its rescaled latencies over the rounds.
The run prints the end-to-end metrics:

    wall_s       one round of the op list: the sum of the ops' latencies
    op_p50_ms    median of the ops' latencies
    op_tail_ms   90th percentile (nearest rank) of the ops' latencies
    setup_s      fresh interpreter to first op (importing qtoroidal.cli
                 plus building the fixed inputs), each rescaled by the
                 calibration loop run in the same interpreter; median of
                 9 interpreters started at even steps through the rounds
    peak_rss_mb  ru_maxrss of the workload process, MiB

plus ``failed_frac`` (failed ops / ops attempted) and the same three
latency figures without rescaling on the summary lines.  ``--trace 1``
runs a warm-up round, one round untraced, then the same round under
cProfile and spans, and prints the per-layer metrics (see ``tracing.py``)
with ``trace.overhead_ratio``.  End-to-end numbers never come from a
traced round.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata and the spans
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from tracing import LayerMap, NoSpans, Spans, layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qtoroidal")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HASH_SEED = "0"            # fixed so call counts repeat exactly
SETUP_PROBES = 9
MIN_ROUNDS = 5             # timed rounds, however slow the machine
TAIL_PERCENTILE = 90
CAL_STEPS = 100            # one calibration pass: about 0.35 ms
CAL_BRACKET = 4            # passes between two ops
TICK_S = 0.025             # one pass this often while an op runs
# time of one calibrate() pass on the reference host (2-core Xeon at
# 2 GHz, Python 3.11) at its fastest; a fixed scale, not measured at run
# time
CAL_REF_S = 0.32e-3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["chars", "relations", "fusion", "hecke"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def relaunch(argv):
    """Run this script again with the fixed hash seed and wait for it."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        done = subprocess.run([sys.executable, __file__, *argv], env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload process timed out", file=sys.stderr)
        return 3
    return done.returncode


def calibrate():
    """One pass of a fixed loop of the kinds of work the library does most
    (Fraction arithmetic, tuple-keyed dict updates, a sort), using only
    the standard library; returns its duration in seconds.  The host's
    speed at a moment is read from it."""
    t0 = perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, CAL_STEPS):
        acc += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 5, -i % 3)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    return perf_counter() - t0


class SetupProbes:
    """Set-up time sampled in SETUP_PROBES fresh interpreters running
    ``probe.py``, started at even steps through the measured part of a
    run.  They keep their bytecode cache under OUT_DIR, whatever the
    environment says, and a first interpreter only warms that cache and
    is dropped; so set-up is timed with a warm cache in every run."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"),
                    args.workload, str(args.seed)]
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
        self.samples = []
        self._probe()
        self.samples.clear()

    def _probe(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              env=self.env, timeout=60, check=True)
        self.samples.append(json.loads(done.stdout.splitlines()[-1]))

    def due(self, done):
        """Start the probes due once a share ``done`` of the run is over:
        the first at the start, the last at the end."""
        want = 1 + int(min(done, 1.0) * (SETUP_PROBES - 1))
        while len(self.samples) < want:
            self._probe()

    def medians(self):
        """Medians over the probes of the rescaled set-up times."""
        s = self.samples

        def med(part):
            return statistics.median(part(x) * CAL_REF_S / x["cal_s"]
                                     for x in s)
        return {"setup_s": med(lambda x: x["import_s"] + x["build_s"]),
                "cli.import_s": med(lambda x: x["import_s"]),
                "setup.build_s": med(lambda x: x["build_s"])}


class Checker:
    """Exact result checks; tallies ops attempted and failed."""

    def __init__(self, workloads, answers):
        self.workloads = workloads
        self.answers = answers
        self.attempted = 0
        self.failures = []

    def fail(self, kind, params, reason):
        self.failures.append({"op": self.workloads.op_key(kind, params),
                              "reason": reason})

    def check(self, kind, params, out):
        """True when the op's result is right; else records why not."""
        check = self.workloads.KINDS[kind][1]
        try:
            verdict, body = check(out, params)
            got, floats = self.workloads.digest(body)
        except Exception as exc:    # a result of the wrong shape fails
            self.fail(kind, params, "check raised %s: %s"
                      % (type(exc).__name__, exc))
            return False
        want = self.answers.get(self.workloads.op_key(kind, params))
        if not verdict:
            reason = "wrong verdict"
        elif floats:
            reason = "float in result: %s" % floats[0]
        elif want is None:
            reason = "no known answer"
        elif got != want:
            reason = "digest %s != known %s" % (got, want)
        else:
            return True
        self.fail(kind, params, reason)
        return False


class Speedometer:
    """The host's speed around and during each op, read from passes of
    ``calibrate``: CAL_BRACKET passes before every op and after the last
    one, and while an op runs one pass every TICK_S, started by a
    real-time interval timer.  The passes inside an op are taken out of
    its latency."""

    def __init__(self):
        self._ticks = []
        self._stolen = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._ticks.append(calibrate())
        self._stolen += perf_counter() - t0

    @staticmethod
    def bracket():
        return [calibrate() for _ in range(CAL_BRACKET)]

    def run(self, fn, *args):
        """(result, latency less the passes inside, the passes inside)."""
        self._ticks, self._stolen = [], 0.0
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            latency = perf_counter() - t0
            signal.signal(signal.SIGALRM, old)
        return out, latency - self._stolen, self._ticks


def run_round(workloads, ops, inputs, tracer, checker, prof=None,
              counts=None, meter=None):
    """Run ops back to back; returns the per-op latencies in seconds and,
    with a ``meter``, each op's calibration pass time: the mean of the
    passes before, during and after it.  With ``prof``, only the ops run
    under the profiler, not the checks."""
    if meter:
        call = meter.run
    elif prof:
        def call(*args):
            return prof.runcall(*args), None, None
    else:
        def call(fn, *args):
            return fn(*args), None, None
    latencies = []
    passes = []
    before = meter.bracket() if meter else []
    for kind, params in ops:
        run = workloads.KINDS[kind][0]
        checker.attempted += 1
        t0 = perf_counter()
        try:
            out, latency, inside = call(tracer.call, "op." + kind, run,
                                        tracer, inputs, *params)
        except Exception as exc:    # a failing op is counted, not fatal
            latencies.append(perf_counter() - t0)
            checker.fail(kind, params, "raised %s: %s"
                         % (type(exc).__name__, exc))
            out = inside = None
        else:
            latencies.append(perf_counter() - t0 if latency is None
                             else latency)
            if checker.check(kind, params, out) and counts is not None:
                for name, v in workloads.work_counts(kind, out).items():
                    counts[name] = counts.get(name, 0) + v
        if meter:
            after = meter.bracket()
            passes.append(before + (inside or []) + after)
            before = after
    return latencies, [statistics.fmean(p) for p in passes]


def tail(latencies):
    """(value, ops beyond): the TAIL_PERCENTILE-th percentile by nearest
    rank and the number of ops slower than it."""
    lat = sorted(latencies)
    rank = -(-TAIL_PERCENTILE * len(lat) // 100)
    return lat[rank - 1], len(lat) - rank


def git_commit():
    """HEAD of the checkout when it is a git repository, read from the
    files so nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, qtoroidal, ops_per_round):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": ops_per_round,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "kernel_impl": getattr(qtoroidal, "kernel_impl", None),
        "loadavg_start": list(os.getloadavg()),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(per_op):
    """(wall, p50, tail, ops beyond the tail) of per-op latencies."""
    t_value, t_beyond = tail(per_op)
    return sum(per_op), statistics.median(per_op), t_value, t_beyond


def timed_run(workloads, ops, orders, inputs, checker, probes, seconds):
    """Rounds in seeded orders, at least MIN_ROUNDS and then as long as
    another round like the last one ends within ``seconds``; an op's
    latency is the median over the rounds of its rescaled latency."""
    raw = [[] for _ in ops]
    scaled = [[] for _ in ops]
    passes = [[] for _ in ops]
    meter = Speedometer()
    spent = last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or spent + last <= seconds:
        probes.due(spent / seconds)
        order = next(orders)
        t0 = perf_counter()
        lat, speed = run_round(workloads, [ops[i] for i in order], inputs,
                               NoSpans, checker, meter=meter)
        last = perf_counter() - t0
        spent += last
        rounds += 1
        for j, i in enumerate(order):
            raw[i].append(lat[j])
            scaled[i].append(lat[j] * CAL_REF_S / speed[j])
            passes[i].append(speed[j])
    probes.due(1.0)
    setup = probes.medians()
    wall, p50, t_value, t_beyond = latency_metrics(
        [statistics.median(x) for x in scaled])
    m = {
        "wall_s": metric(wall, "s"),
        "op_p50_ms": metric(p50 * 1e3, "ms"),
        "op_tail_ms": metric(t_value * 1e3, "ms"),
        "setup_s": metric(setup["setup_s"], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0, "MiB"),
    }
    r_wall, r_p50, r_tail, _ = latency_metrics(
        [statistics.median(x) for x in raw])
    info = {"rounds": rounds, "tail_ops_beyond": t_beyond,
            "ops_per_round": len(ops),
            "unscaled": {"wall_s": r_wall, "op_p50_ms": r_p50 * 1e3,
                         "op_tail_ms": r_tail * 1e3},
            "setup_samples": probes.samples,
            "op_seconds": {workloads.op_key(*op): lat
                           for op, lat in zip(ops, raw)},
            "op_scaled_seconds": {workloads.op_key(*op): lat
                                  for op, lat in zip(ops, scaled)},
            "op_calibration_s": {workloads.op_key(*op): p
                                 for op, p in zip(ops, passes)}}
    return m, info


def traced_run(workloads, ops, inputs, checker, probes):
    """A warm-up round and one untraced round, then the same round under
    cProfile + spans."""
    run_round(workloads, ops, inputs, NoSpans, checker)
    untraced = sum(run_round(workloads, ops, inputs, NoSpans, checker)[0])
    probes.due(0.5)
    spans = Spans()
    counts = {}
    prof = cProfile.Profile()
    traced = sum(run_round(workloads, ops, inputs, spans, checker, prof,
                           counts)[0])
    probes.due(1.0)
    values = layer_metrics(pstats.Stats(prof).stats, LayerMap(PACKAGE),
                           spans)
    setup = probes.medians()
    values["cli.import_s"] = setup["cli.import_s"]
    values["setup.build_s"] = setup["setup.build_s"]
    pairs = counts.get("pairs", 0)
    values["qchar.product_pairs"] = pairs
    values["qchar.product_useful_ratio"] = (
        counts.get("useful_pairs", 0) / pairs if pairs else 0.0)
    checked = counts.get("checked", 0)
    looked = checked + counts.get("skipped", 0)
    values["modrep.instances"] = counts.get("instances", 0)
    values["modrep.vectors_checked"] = checked
    values["modrep.checked_ratio"] = checked / looked if looked else 0.0
    values["trace.overhead_ratio"] = traced / untraced
    units = {"_s": "s", "_calls": "count", "_ratio": "ratio"}
    m = {}
    for name in sorted(values):
        unit = next((u for suffix, u in units.items()
                     if name.endswith(suffix)), "count")
        m[name] = metric(values[name], unit)
    info = {"untraced_round_s": untraced, "traced_round_s": traced,
            "setup_samples": probes.samples,
            "spans": spans.spans}
    return m, info


def write_record(args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("perfbench: no qtoroidal sources under %s; run from the root "
              "of a source checkout" % SRC, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        return relaunch(argv)
    sys.path.insert(0, SRC)

    import qtoroidal
    import qtoroidal.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(qtoroidal.__file__)) != PACKAGE:
        print("perfbench: imported qtoroidal from %s, not this checkout"
              % qtoroidal.__file__, file=sys.stderr)
        return 2
    import workloads
    inputs = workloads.fixed_inputs()
    ops = workloads.op_list(args.workload, args.seed)
    with open(os.path.join(BENCH_DIR, "answers.json")) as f:
        answers = json.load(f)
    checker = Checker(workloads, answers)
    meta = metadata(args, qtoroidal, len(ops))

    probes = SetupProbes(args)
    if args.trace:
        metrics, info = traced_run(workloads, ops, inputs, checker, probes)
    else:
        orders = workloads.round_orders(args.workload, args.seed)
        metrics, info = timed_run(workloads, ops, orders, inputs, checker,
                                  probes, args.seconds)

    meta["loadavg_end"] = list(os.getloadavg())
    failed = len(checker.failures)
    result = {"correct": failed == 0, "attempted": checker.attempted,
              "failed": failed, "metrics": metrics}
    path = write_record(args, {"meta": meta, "info": info, "result": result,
                               "failures": checker.failures})

    for name, m in metrics.items():
        print("%-34s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%-34s %14.6f ratio (%d of %d ops failed)"
          % ("failed_frac", failed / checker.attempted, failed,
             checker.attempted))
    if "unscaled" in info:
        print("unscaled: " + ", ".join("%s %.6f" % kv for kv in
                                       sorted(info["unscaled"].items())))
    if "tail_ops_beyond" in info:
        print("op_tail_ms is p%d of %d ops' latencies (%d beyond it), each"
              " the median of %d rounds"
              % (TAIL_PERCENTILE, info["ops_per_round"],
                 info["tail_ops_beyond"], info["rounds"]))
    for fail in checker.failures[:5]:
        print("FAILED %s: %s" % (fail["op"], fail["reason"]))
    print("meta: %s" % json.dumps(meta, sort_keys=True))
    print("details: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
