"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--seed N] [--trace] [--workload NAME ...]

Runs `perfbench/run.py` once per workload, untraced, for the `run_seconds`
that `BENCHMARK.json` fixes, and prints the end-to-end metrics and the
correctness counts.  With `--trace` it also makes
the traced run of each workload and prints the per-layer metrics.  Exits 1
if any run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or workloads.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, args.seed, SECONDS, trace)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            kind = "per-layer" if trace else "end-to-end"
            print(f"{workload}  {kind}  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
