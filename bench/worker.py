"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line.  Set-up
time runs from this process's first statements to the end of input
generation, so it covers the imports; it is calibrated by reference-loop
timings taken just before and just after it (see hostclock.py).
``--setup-only`` stops there.
"""

import time

import hostclock

SETUP_LOOP_S = hostclock.timed_loop()[1]
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import cayleyspec  # noqa: E402

import spans  # noqa: E402
from stats import Outcomes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metric -> span group whose outermost calls it sums
SPAN_TIMES = {
    "groups.generating_s": "groups.generating",
    "groups.classes_s": "groups.classes",
    "irreps.builtin_s": "irreps.builtin",
    "irreps.validate_s": "irreps.validate",
    "irreps.p_matrix_s": "irreps.p_matrix",
    "irreps.fourier_s": "irreps.fourier",
    "cayley.adjacency_s": "cayley.adjacency",
    "cayley.classify_s": "cayley.classify",
    "spectra.formula_s": "spectra.formula",
    "spectra.multiset_s": "spectra.multiset",
    "spectra.block_diag_s": "spectra.block_diag",
    "spectra.hypotheses_s": "spectra.hypotheses",
    "verify.eigenpairs_s": "verify.eigenpairs",
    "verify.basis_s": "verify.basis",
    "verify.certify_s": "verify.certify",
    "verify.reconstruction_s": "verify.reconstruction",
    "verify.compare_s": "verify.compare",
}


def layer_metrics(tracer, workload, result: dict) -> dict:
    """Per-layer figures of a traced run, each per job unless a ratio."""
    inclusive, counters = tracer.inclusive, tracer.counters
    jobs = result["attempted"]
    out = {name: inclusive.get(group, 0.0) / jobs for name, group in SPAN_TIMES.items()}
    eigenpairs_s = inclusive.get("verify.eigenpairs", 0.0)
    flops = counters.get("verify.residual_flops", 0.0)
    startup_s = 0.0
    if workload.program_in_children:
        startup_s = workload.wall_s - inclusive.get("cli.main", 0.0)
    out.update({
        "cayley.adjacency_mb": counters.get("cayley.adjacency_bytes", 0.0) / 1e6 / jobs,
        "verify.residual_gflops": flops / eigenpairs_s / 1e9 if eigenpairs_s else 0.0,
        "verify.worst_residual_ratio": counters.get("verify.worst_residual_ratio", 0.0),
        "spectra.lines": counters.get("spectra.lines", 0.0) / jobs,
        "spectra.vectors": counters.get("spectra.vectors", 0.0) / jobs,
        "cli.self_s": tracer.self_s.get("cli.main", 0.0) / jobs,
        "cli.startup_s": startup_s / jobs,
        "cli.output_mb": workload.output_bytes / 1e6 / jobs,
        "cli.golden_mismatch": workload.golden_mismatch,
        "groups.repeat_share": result["repeat_share"],
        "trace.unspanned_s": max(0.0, sum(result["job_seconds"]) - tracer.top_level_s) / jobs,
        "failed_ratio": result["failed_ratio"],
    })
    for layer, calls in tracer.calls.items():
        out[f"{layer}.calls"] = calls / jobs
    return out


def environment() -> dict:
    """Commit, versions and thread counts of what this run measured."""
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        threads = get()
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": threads, "nproc": os.cpu_count(),
    }


def measure(workload, seconds: float, tracer) -> dict:
    """Whole passes, while the next one is expected to end within
    ``seconds``; at least ``workload.min_passes``."""
    watch = workload.watch
    outcomes = Outcomes()
    job_seconds, cal_job_seconds, seen = [], [], set()
    repeats = 0
    by_tag = {}
    who = resource.RUSAGE_CHILDREN if workload.program_in_children else resource.RUSAGE_SELF
    start = time.perf_counter()
    passes = 0
    for jobs in workload.passes:
        for job in jobs:
            tag = workload.tag(job)
            signature = workload.signature(job)
            repeats += signature in seen
            seen.add(signature)
            if tracer is not None:
                tracer.tag = tag
            watch.probe()
            try:
                (took, cal_took), reason = workload.run(job)
            except Exception as exc:  # a job's crash is its failure, not the run's
                if watch.running:
                    watch.stop()
                (took, cal_took), reason = (0.0, 0.0), f"{type(exc).__name__}: {exc}"
            outcomes.record(tag, reason)
            job_seconds.append(took)
            cal_job_seconds.append(cal_took)
            entry = by_tag.setdefault(tag, {"jobs": 0, "job_s": 0.0, "cal_job_s": 0.0})
            entry["jobs"] += 1
            entry["job_s"] += took
            entry["cal_job_s"] += cal_took
            entry["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= workload.min_passes and elapsed + elapsed / passes > seconds:
            break
    return {
        "passes": passes,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failed_ratio": outcomes.failed_ratio,
        "reasons": outcomes.reasons,
        "job_seconds": job_seconds,
        "cal_job_seconds": cal_job_seconds,
        "calibration_loop_s": watch.clock.loops,
        "repeat_share": repeats / len(job_seconds),
        "by_tag": by_tag,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(cayleyspec.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.stderr.write(f"cayleyspec imported from {source}, not this checkout\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir, bool(args.trace))
    setup_wall_s = time.perf_counter() - PROCESS_START
    loop_s = (SETUP_LOOP_S + hostclock.timed_loop()[1]) / 2
    setup_s = setup_wall_s * hostclock.NOMINAL_S / loop_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    # Where the program runs in child processes they probe themselves
    # (cli_shim.py); probes here would share the CPU with them.
    period = None if workload.program_in_children else hostclock.PROBE_PERIOD_S
    with hostclock.Stopwatch(period) as workload.watch:
        result = measure(workload, args.seconds, tracer)
    result.update({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "golden_mismatch": workload.golden_mismatch,
        "environment": environment(),
    })
    if tracer is not None:
        for summary in workload.summaries:
            tracer.merge(summary)
        result["layers"] = layer_metrics(tracer, workload, result)
        for tag, entry in result["by_tag"].items():
            entry.update({
                group: seconds / entry["jobs"]
                for group, seconds in tracer.by_tag.get(tag, {}).items()
            })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
