"""cayleyspec benchmark: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Measures the checkout's own ``src/`` (nothing is installed).  Every run
starts fresh worker processes: four that only set up, whose set-up times
join the measuring worker's for the median ``setup_s``, and the measuring
worker itself, whose peak RSS is the run's.  ``--trace 1`` first repeats
the untraced run, then measures with spans, and reports the per-layer
metrics of BENCHMARK.json instead of the end-to-end ones.

The last line of standard output is the result object; the line before
it is an ``info`` object with the environment, the job tail with its
sample count, failure reasons and per-tag breakdowns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostclock import ONE_THREAD_ENV
from stats import interquartile_mean, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("metacyclic_large", "catalog_small", "cli_jobs")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # a run must end within 180 s


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def worker(args, workdir: Path, deadline: float, *extra) -> dict:
    seconds = args.seconds / 2 if args.trace else args.seconds
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--workdir", str(workdir), *extra]
    env = dict(os.environ, **ONE_THREAD_ENV)
    # its own process group, so that a timeout also ends the CLI processes
    # a cli_jobs worker has started
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if not (ROOT / "src" / "cayleyspec" / "__init__.py").is_file():
        return fail(f"no cayleyspec sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Workers and the CLI processes they start run on one CPU, with one
    # BLAS thread: the probes of hostclock.py then time the CPU the program
    # runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        setups = [worker(args, workdir, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        baseline = worker(args, workdir, deadline) if args.trace else None
        run = worker(args, workdir, deadline, "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times, cal_times = run["job_seconds"], run["cal_job_seconds"]
    values = {
        "setup_s": statistics.median(setups + [run["setup_s"]]),
        "cal_jobs_per_s": len(cal_times) / sum(cal_times),
        "cal_job_iqm_s": interquartile_mean(cal_times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    if args.trace:
        base_times = baseline["cal_job_seconds"]
        overhead = values["cal_jobs_per_s"] / (len(base_times) / sum(base_times))
        values = dict(run["layers"])
        values["trace.overhead_ratio"] = overhead
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"run produced no value for {missing}")

    found = tail(times)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": run["passes"], "jobs": run["attempted"],
        "failed_ratio": run["failed_ratio"],
        "failures": run["reasons"],
        "jobs_per_s": len(times) / sum(times),
        "job_iqm_s": interquartile_mean(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": None if found is None else
        {"percentile": found[0], "value": found[1], "beyond": found[2], "samples": len(times)},
        "calibration_loop_ms": 1000 * statistics.median(run["calibration_loop_s"]),
        "repeat_share": run["repeat_share"],
        "golden_mismatch": run["golden_mismatch"],
        "by_tag": run["by_tag"],
        "environment": run["environment"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
