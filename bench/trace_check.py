"""Check that the traced run sees every call: two traced runs, same seed, same counts.

    python3 bench/trace_check.py --seed 1

For each workload it runs ``run.py --trace 1`` twice and compares the values
that must repeat exactly (``*.calls``, ``cache.entries`` and the two ratios),
then prints every workload's tracing overhead.  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_SUFFIXES = (".calls", "cache.entries", ".hit_ratio", ".per_j_class")


def traced_run(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    bad = 0
    for wl in (w["name"] for w in spec["workloads"]):
        a, b = (traced_run(spec, wl, args.seed) for _ in range(2))
        exact = [k for k in a["metrics"] if k.endswith(EXACT_SUFFIXES)]
        diff = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        bad += len(diff) + (not a["correct"]) + (not b["correct"])
        overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (a, b)]
        print(f"{wl}: {len(exact) - len(diff)}/{len(exact)} exact values repeat; "
              f"overhead {overhead[0]:.3f} / {overhead[1]:.3f}; correct {a['correct']} / {b['correct']}")
        for k in diff:
            print(f"  {k}: {a['metrics'][k]['value']} != {b['metrics'][k]['value']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
