"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (interquartile range over median) against its bound.

    python3 bench/spread.py --workload fixedkey-256 --seeds 1 2 3 4 5

Runs are made one after another.  A spread at or above a third of the
metric's bound (setup_s excepted) is marked; such a metric is too noisy to
judge a change by.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = ap.parse_args()
    noisy = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                noisy += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                flag = "  NOISY"
                noisy += 1
            print(f"  {m['name']:18s} median {med:12.4f} {m['unit']:6s} "
                  f"spread {spread:7.4f} bound {m['bound']}{flag}")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
