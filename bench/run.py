"""Benchmark of qaffine's quantum and affine routes.

Run from the repository root:

    python3 bench/run.py --workload quantum-products --seed 1 --seconds 8 --trace 0

Each run is one closed-loop client in a fresh interpreter.  It sets up the
workload several times (``setup_s`` is the median), then runs whole rounds of
operations until ``--seconds`` have passed, at least ``MIN_ROUNDS`` rounds and
at least ``MIN_OPS`` operations have run (see ``Loop.samples``).
Every output is checked against ``oracles.py``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead wraps the program's layer functions (see
``layertrace.py``), traces one set-up and one round, and reports per-layer call
counts and self times; the spans go to ``bench/out/``.  Then rounds with the
wrappers removed alternate with traced rounds to give the tracing overhead.
"""

import argparse
import gc
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CliOneshot, cpu_clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# setup_s is the median of in-process set-ups, repeated at least SETUPS times
# and for at least SETUP_SECONDS, so cheap set-ups get more samples; two of
# the ~10 s bruhat-parabolic set-up keep a full benchmark cycle under an hour
SETUPS = 2
SETUP_SECONDS = 4.0
MIN_OPS = 100
# This host's speed changes in phases of seconds: a CPU-bound loop runs at
# 1x most of the time and at up to 1.5x in bursts.  An operation's latency is
# therefore the slowest of its timings in MIN_ROUNDS rounds, which lie seconds
# apart, so it reads the common speed; the mean or median of all timings moved
# by 20-25 % between runs with the share of bursts.
MIN_ROUNDS = 3
OVERHEAD_PAIRS = 3  # at least this many untraced/traced round pairs in a traced run
HASH_SEED = "0"


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def load_program():
    """Import qaffine from this checkout's src/, or return None."""
    if not (SRC / "qaffine" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qaffine
    from qaffine import cartan, cli, coeffring, nilhecke, parabolic, peterson, qbruhat, quantum, weyl

    if Path(qaffine.__file__).resolve().parent != SRC / "qaffine":
        return None
    return argparse.Namespace(cartan=cartan, cli=cli, coeffring=coeffring, nilhecke=nilhecke, parabolic=parabolic,
                              peterson=peterson, qbruhat=qbruhat, quantum=quantum, weyl=weyl)


class Loop:
    """Runs rounds of operations, timing only the program's calls."""

    def __init__(self, workload, state, order_seed, tracer=None):
        self.workload = workload
        self.state = state
        self.order_seed = order_seed
        self.tracer = tracer
        self.marks = [(d, len(d)) for d in workload.caches(state)]
        self.latencies = []
        self.timings = {}  # (label, occurrence in the round) -> seconds, one per round
        self.failed = 0
        self.wrong = []
        self.round_seconds = []

    def reset(self):
        for d, n in self.marks:
            while len(d) > n:
                d.popitem()  # entries added since set-up, newest first

    def round(self, traced=False):
        self.reset()
        spent = 0.0
        seen = {}
        # the same order in every round: which operation first fills a cache
        # entry that later ones reuse then stays the same from round to round
        for op in self.workload.round_ops(self.state, random.Random(self.order_seed)):
            t0 = cpu_clock()
            try:
                if traced:
                    with self.tracer.active(len(self.latencies)):
                        res = op.call()
                else:
                    res = op.call()
            except Exception:  # the loop must keep running; the op counts as failed
                dt = cpu_clock() - t0
                outcome = ("failed", traceback.format_exc(limit=3))
            else:
                dt = cpu_clock() - t0
                outcome = op.check(res)
            spent += dt
            self.latencies.append(dt)
            seen[op.label] = seen.get(op.label, 0) + 1
            self.timings.setdefault((op.label, seen[op.label]), []).append(dt)
            if outcome is not None:
                kind, why = outcome
                if kind == "failed":
                    if not self.failed:
                        print(f"failed: {op.label}: {why}", file=sys.stderr)
                    self.failed += 1
                else:
                    self.wrong.append(f"{op.label}: {why}")
        self.round_seconds.append(spent)

    def run(self, seconds):
        t0 = perf_counter()
        while perf_counter() - t0 < seconds or len(self.round_seconds) < MIN_ROUNDS or len(self.latencies) < MIN_OPS:
            self.round()

    def samples(self):
        """Sorted latency samples.  When a round has MIN_OPS operations, one
        per operation and block of MIN_ROUNDS rounds: the slowest of its
        timings in the block (a trailing partial block is left out).  Else
        every timing, so the 90th percentile has ten samples beyond it."""
        if len(self.timings) < MIN_OPS:
            return sorted(self.latencies)
        blocks = range(0, len(self.round_seconds) - MIN_ROUNDS + 1, MIN_ROUNDS)
        return sorted(max(ts[b:b + MIN_ROUNDS]) for ts in self.timings.values() for b in blocks)


def build_workload(name, q, seed, inprocess_cli=False):
    rng = random.Random(seed)
    if WORKLOADS[name] is CliOneshot:
        return CliOneshot(q, rng, str(SRC), inprocess=inprocess_cli)
    return WORKLOADS[name](q, rng)


def end_to_end(args, q):
    wl = build_workload(args.workload, q, args.seed)
    times = []
    while not times or args.workload != "cli-oneshot" and (len(times) < SETUPS or sum(times) < SETUP_SECONDS):
        # free the previous set-up first (root systems and their caches hold
        # cycles), so the peak resident set counts one set-up, not several
        state = None
        gc.collect()
        t0 = cpu_clock()
        state = wl.setup()
        times.append(cpu_clock() - t0)
    setup_s = state["import_s"] if args.workload == "cli-oneshot" else median(times)
    problems = wl.prepare(state)
    loop = Loop(wl, state, args.seed + 1)
    loop.run(args.seconds)
    lat = loop.samples()
    n = len(lat)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "ops/s"),
        "op_ms_p50": (1000 * median(lat), "ms"),
        "op_ms_p90": (1000 * lat[-(-9 * n // 10) - 1], "ms"),  # n >= MIN_OPS leaves >= 10 beyond it
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    print(f"{args.workload}: {len(loop.latencies)} ops in {len(loop.round_seconds)} rounds, {loop.failed} failed, "
          f"{n} latency samples, set-ups {[round(t, 3) for t in times]}", file=sys.stderr)
    return problems + loop.wrong, len(loop.latencies), loop.failed, metrics


def traced(args, q):
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    wl = build_workload(args.workload, q, args.seed, inprocess_cli=True)
    built = []
    cartan_build = q.cartan.build

    def recording_build(label):
        rs = cartan_build(label)
        built.append(rs)
        return rs

    q.cartan.build = recording_build  # the round's root systems, for cache.entries
    with tracer.active():
        state = wl.setup()
    problems = wl.prepare(state)
    loop = Loop(wl, state, args.seed + 1, tracer)
    built.clear()
    loop.round(traced=True)
    entries = sum(len(rs._cache) for rs in {id(rs): rs for rs in built}.values())
    entries += sum(len(d) for d in wl.caches(state))
    metrics = tracer.layer_metrics()
    metrics["cache.entries"] = (entries, "count")
    # Overhead: pairs of a round with the program's own functions (wrappers
    # removed) and a traced round, so drift in the host's speed hits both
    # alike.  Their calls and spans are not reported.
    kept = len(tracer.spans), tracer.dropped
    ratios = []
    t0 = perf_counter()
    while perf_counter() - t0 < args.seconds or len(ratios) < OVERHEAD_PAIRS:
        tracer.uninstall()
        loop.round()
        tracer.install()
        loop.round(traced=True)
        ratios.append(loop.round_seconds[-1] / loop.round_seconds[-2])
    del tracer.spans[kept[0]:]
    tracer.dropped = kept[1]
    metrics["trace.overhead_ratio"] = (median(ratios), "ratio")
    print(f"{args.workload}: traced/untraced round time over {len(ratios)} pairs: median {median(ratios):.3f}, "
          f"range {min(ratios):.3f}-{max(ratios):.3f}", file=sys.stderr)
    metrics["cli.import_s"] = (wl.import_seconds() if args.workload == "cli-oneshot" else 0.0, "s")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    return problems + loop.wrong, len(loop.latencies), loop.failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("error: python -O strips the program's certificate asserts; run without -O", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing sets the dict layout of the program's cache keys; a
        # random seed per process moved round times by about 5 %
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    q = load_program()
    if q is None:
        print(f"error: no qaffine sources under {SRC}", file=sys.stderr)
        return 2
    wrong, attempted, failed, metrics = (traced if args.trace else end_to_end)(args, q)
    for msg in wrong[:5]:
        print(f"wrong: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
