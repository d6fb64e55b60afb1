"""Self-check: two traced runs of each workload give identical counts.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs `run.py --trace 1` twice per workload in fresh processes and compares
every per-layer metric whose unit is not a time.  Each traced run already
checks that traced and untraced passes give the same outputs and the same
`sim.steps`; this adds determinism across processes.  Exits 1 on any
mismatch or incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_UNITS = ("s", "us")


def traced_counts(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] not in TIME_UNITS and k != "trace.overhead_frac"}
    return result["correct"], counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        (ok1, a), (ok2, b) = (traced_counts(workload, args.seed, args.seconds)
                              for _ in range(2))
        diff = sorted(k for k in a if a[k] != b.get(k))
        ok &= ok1 and ok2 and not diff
        print(f"{workload}: correct={ok1 and ok2}, {len(a)} counts, "
              f"differing: {diff or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
