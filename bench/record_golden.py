"""Record the SHA-256 of each CLI job's output into bench/golden.json.

Usage: ``python3 bench/record_golden.py`` from the root of a checkout.
Run it only when a change to the CLI's output bytes is intended and
explained; the benchmark counts later differences as cli.golden_mismatch.
Each output must first pass the same checks as in a benchmark run.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import CLI_JOBS, CliJobs  # noqa: E402


def main() -> int:
    work = BENCH_DIR.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        workload = CliJobs(seed=0, workdir=Path(tmp), trace=False)
        for job in CLI_JOBS:
            _, reason = workload.run(job)
            if reason is not None:
                sys.stderr.write(f"{job[0]}: {reason}\n")
                return 1
    (BENCH_DIR / "golden.json").write_text(
        json.dumps(workload.first_digest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
