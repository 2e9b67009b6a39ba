"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py                          # every workload, one run each
    python3 perfbench/sweep.py --runs 10 --workloads exact,ingest

Run from the root of a qcat checkout. Each run is a fresh process of
``run.py``, one after the other, with seeds ``--first-seed`` and up. For
every workload and metric it prints the median over the runs, the first
and third quartiles (``statistics.quantiles(n=4)``), the spread
(q3 - q1) / median and, for end-to-end metrics, the bound that
``BENCHMARK.json`` fixes; then the operations attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
            *notes, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            for note in notes:
                print(f"{workload} seed={seed} {note}")
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        print(f"\n{workload}: {len(runs)} runs, attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        head = f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
        print(f"  {'metric':34} {'unit':6} {head}")
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            bound = bounds.get(name, "")
            print(f"  {name:34} {first['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:8.4f} {bound:>6}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
