"""Run every workload once and print its end-to-end metrics, by workload-level
name and with units, as one table.

    python3 bench/table.py --seed 1

Each workload runs in its own `bench/run.py` process, one after another, so
that peak_rss_mb belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed with code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        print(f"{workload}  (correct={result['correct']}, attempted={result['attempted']}, "
              f"failed={result['failed']}, passes={report['samples']['passes']})")
        for name, metric in report["metrics"].items():
            print(f"    {name:28s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
