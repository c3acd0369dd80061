"""Run the benchmark once per seed on each workload and collect the results.

    python3 bench/sweep.py --out bench/results/a.jsonl --runs 10

Runs ``bench/run.py --trace 0`` one process at a time from the checkout root,
with seeds 1 to ``--runs``, and appends each run's full record (result
line, size counters) to ``--out``; ``bench/compare.py`` reads two such files.
Workloads and the run length default to those in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file the records are appended to")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workloads:
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0",
                 "--record", str(Path(args.out).resolve())],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                continue
            status |= proc.returncode
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:5])
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
