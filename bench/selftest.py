"""Self-test of the benchmark harness; takes a few seconds.

    python3 bench/selftest.py

Runs one tiny job per workload in a child process and checks that it
passes, that a tampered expected answer, a nonzero exit code and an exit 3
from a size cap each count as a failed job, and that the traced child
records calls through its wrappers.  Exits 0 when every check holds.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402


def _tampered(job: dict) -> dict:
    bad = copy.deepcopy(job)
    check = bad["check"]
    if check["kind"] == "dstab":
        check["dstab"] += 1
    else:
        check["primes"] = check["primes"][1:]
    bad["id"] += ":tampered"
    return bad


def _with_argv(job: dict, suffix: str, argv: list[str]) -> dict:
    out = copy.deepcopy(job)
    out["id"] += suffix
    out["argv"] = argv
    return out


def main() -> int:
    os.chdir(run.ROOT)
    workdir = run.WORK / f"selftest-{os.getpid()}"
    expected = corpus.load_expected()
    problems = []
    try:
        for workload in corpus.WORKLOADS:
            job = corpus.build_jobs(workload, run.DEFAULT_SEED, workdir / workload, expected)[0]
            missing = job["argv"][:3] + [str(workdir / "none.txt")] + job["argv"][4:]
            cases = [
                (job, 0),
                (_tampered(job), 1),
                (_with_argv(job, ":missing-file", missing), 1),
                (_with_argv(job, ":capped", ["--max-r", "2"] + job["argv"]), 1),
            ]
            jobs = [c for c, _ in cases]
            jobs_file = workdir / workload / "jobs.json"
            jobs_file.write_text(json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]))
            deadline = time.monotonic() + 60
            result = run.run_pass(jobs_file, True, deadline)
            for (case, want), rec in zip(cases, result["jobs"]):
                got = len(run.check_pass([case], {"jobs": [rec]}))
                status = "ok" if got == want else "WRONG"
                print(f"{status:5s} {workload:9s} {case['id']:28s} rc={rec['rc']} failed={got}")
                if got != want:
                    problems.append(case["id"])
            if not any(result["trace"]["calls"].values()):
                problems.append(f"{workload}: traced child recorded no wrapped calls")
            if result["jobs"][3]["rc"] != 3:
                problems.append(f"{workload}: capped job exited {result['jobs'][3]['rc']}, not 3")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"selftest problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
