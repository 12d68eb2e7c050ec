"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: ``python3 bench/spread.py --workload W [--seeds 1 2 ...]
[--seconds S]`` from the root of a checkout.  Runs ``bench/run.py`` once
per seed, one run at a time, and prints per metric the median, the
quartile spread (Q3 - Q1) / median, and the bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(f"seed {seed}: incorrect result {result}\n")
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(json.dumps({"seed": seed, **{k: v[-1] for k, v in values.items()}}), flush=True)
    for metric in spec["end_to_end"]:
        name, series = metric["name"], values[metric["name"]]
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        print(f"{args.workload} {name}: median {statistics.median(series):.6g} "
              f"spread {spread:.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
