"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10

Runs are sequential, one process at a time, with the run length from
BENCHMARK.json.  For every end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(n=4)``) and their distance as a
share of the median, next to the metric's bound; the failed share of
operations is printed per workload.  Raw results go to
``bench/out/spread-<seeds>.json``, so sets of other seeds do not overwrite them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs[wl] = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[wl].append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr)
        print(f"\n{wl}: failed shares {sorted({r['failed'] / r['attempted'] for r in runs[wl]})}")
        print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[wl]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:14} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.3f} {bound:6}")
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.seeds}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
