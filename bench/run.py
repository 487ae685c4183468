"""edgedepth benchmark: CLI jobs timed in fresh processes.

    python3 bench/run.py --workload dstab-odd --seed 1 --seconds 25 --trace 0

Each pass is one fresh Python process (bench/child.py) that imports
edgedepth once and runs the workload's job list through the public CLI
entry point ``edgedepth.cli.main`` in a fixed order, so the package's
module-level caches start cold and are reused from job to job exactly as
in any other pass.  This process builds inputs, runs the reference kernel
while the child waits for it, and checks the child's answers.

--trace 0 repeats passes until --seconds have gone by (at least
MIN_PASSES) and reports the end-to-end metrics:
  norm_wall_s  sum over jobs of the job's median normalised wall time
               across passes: its wall time divided by the mean time of
               the reference kernel (bench/reference.py) over the
               REF_WINDOW reference points (bench/child.py) on either side
               of it, times reference.NOMINAL_S
  setup_s      median over all children started of process spawn until
               edgedepth is imported and ready for the first job
  peak_rss_mb  median over passes of the child's peak resident set
--trace 1 alternates untraced and traced passes (bench/tracer.py) and
reports the per-layer metrics plus trace.overhead, the traced over the
untraced normalised wall time.

The last stdout line is the result object; the line before it is a
record of the run (seed, versions, CPU count, per-job times and exit
codes).  Jobs that exit nonzero or answer wrongly are counted in
``failed`` and make the run exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import reference  # noqa: E402

# Job inputs live here, relative to ROOT, which is the working directory of
# this process and its children.  Relative, fixed-length paths keep the
# children's allocation pattern (and so peak RSS) independent of where the
# checkout sits and of the process id.
WORK = Path("bench", ".work")
DEFAULT_SEED = 20160111
MIN_PASSES = 2
SETUP_PROBES = 9
REF_WINDOW = 2  # reference points on each side of a job that set its scale
RUN_BUDGET_S = 150.0  # no pass starts that is expected to end past this

# Layers each workload is known to call; zero calls means a refactor moved
# the call past the wrapper, and the trace would silently miss it.
REQUIRED_LAYERS = {
    "dstab-odd": ("depth.scan", "simplicial.homology", "monomials.power",
                  "stability.formula", "stability.oracle"),
    "dstab-bip": ("depth.scan", "simplicial.homology", "graphs.indep",
                  "stability.formula", "stability.oracle"),
    "ass-odd": ("assoc.walk", "assoc.formula", "monomials.colon_scan",
                "monomials.power", "graphs.indep"),
}
# Share of traced wall time that must fall inside wrapped library calls.
MIN_COVERAGE = 0.9

TIME_LAYERS = ("depth.scan", "simplicial.homology", "monomials.power",
               "monomials.colon_scan", "assoc.walk", "assoc.formula",
               "stability.formula", "stability.oracle", "graphs.indep")
COUNTS = ("depth.cells", "depth.powers", "monomials.colon_scan_cells",
          "assoc.states", "assoc.distinct_covers", "stability.oracle_powers")
CALLS = ("simplicial.homology", "monomials.power")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


_REFERENCE: reference.Reference | None = None


def reference_kernel() -> reference.Reference:
    """The kernel, built on first use; build it before timing anything."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = reference.Reference()
    return _REFERENCE


def _serve_reference(rfd: int, wfd: int, deadline: float) -> list[list[float]]:
    """Run the reference kernel as often as the child asks at each of its
    reference points, until it closes its end; returns, per point, the
    kernel times."""
    kernel = reference_kernel()
    points: list[list[float]] = []
    while True:
        ready, _, _ = select.select([rfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise HarnessError("child pass timed out")
        request = os.read(rfd, 1)
        if not request:
            return points
        points.append([kernel.run() for _ in range(request[0])])
        try:
            os.write(wfd, b"k")
        except BrokenPipeError:
            return points


def run_child(args: list[str], deadline: float, sync: bool = False) -> tuple[dict, float]:
    """Run bench/child.py; returns its result and its set-up seconds.  With
    ``sync`` the child asks this process to run the reference kernel between
    its jobs, and the result gains the kernel times per reference point as
    ``ref_s``."""
    if deadline - time.monotonic() <= 0:
        raise HarnessError("run budget exhausted")
    to_child = os.pipe() if sync else None
    to_parent = os.pipe() if sync else None
    pass_fds: tuple[int, ...] = ()
    if sync:
        pass_fds = (to_child[0], to_parent[1])
        args = [*args, "--sync", f"{to_child[0]},{to_parent[1]}"]
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "bench/child.py", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, pass_fds=pass_fds,
    )
    try:
        ref_s = None
        if sync:
            for fd in pass_fds:
                os.close(fd)
            ref_s = _serve_reference(to_parent[0], to_child[1], deadline)
        stdout, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("child pass timed out") from None
    finally:
        if sync:
            os.close(to_parent[0])
            os.close(to_child[1])
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"child exited {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout)
    if sync:
        result["ref_s"] = ref_s
    return result, result["ready"] - spawn


def run_pass(jobs_file: Path, trace: bool, deadline: float) -> dict:
    args = [str(jobs_file)] + (["--trace"] if trace else [])
    t0 = time.monotonic()
    result, setup = run_child(args, deadline, sync=True)
    result["setup_s"] = setup
    result["duration"] = time.monotonic() - t0
    return result


def check_pass(jobs: list[dict], result: dict) -> list[str]:
    """One line per failed job: nonzero exit or a wrong answer."""
    failures = []
    for job, rec in zip(jobs, result["jobs"]):
        bad = corpus.check_job(job, rec["rc"], rec["out"])
        if bad:
            detail = "; ".join(bad)
            if rec["rc"] != 0 and rec["err"].strip():
                detail += ": " + rec["err"].strip().splitlines()[-1]
            failures.append(f"{job['id']}: {detail}")
    return failures


def _wall(result: dict) -> float:
    return sum(rec["wall"] for rec in result["jobs"])


def normalised_walls(result: dict) -> list[float]:
    """Each job's wall time on a machine where the reference kernel takes
    reference.NOMINAL_S.  The shared host's speed drifts by tens of percent
    within minutes, and one kernel run is itself noisy, so each job is
    scaled by the mean kernel time over the REF_WINDOW reference points on
    either side of it."""
    points = result["ref_s"]
    out = []
    for rec in result["jobs"]:
        lo, hi = max(0, rec["ref"] + 1 - REF_WINDOW), rec["ref"] + 1 + REF_WINDOW
        near = [t for point in points[lo:hi] for t in point]
        out.append(rec["wall"] * reference.NOMINAL_S * len(near) / sum(near))
    return out


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    per_job = zip(*[normalised_walls(p) for p in passes])
    return {
        "norm_wall_s": {"value": sum(statistics.median(w) for w in per_job), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["rss_kb"] for p in passes) / 1024, "unit": "MB"
        },
    }


def per_layer(workload: str, pairs: list[tuple[dict, dict]]) -> dict:
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for plain, traced in pairs:
        tr = traced["trace"]
        wall = _wall(traced)
        cli_self = sum(rec["wall"] - rec["top"] for rec in traced["jobs"])
        missing = [layer for layer in REQUIRED_LAYERS[workload] if not tr["calls"].get(layer)]
        if missing:
            raise HarnessError(f"traced run saw no calls to {missing}; wrappers bypassed?")
        coverage = 1 - cli_self / wall
        if coverage < MIN_COVERAGE:
            raise HarnessError(
                f"wrapped layers cover {coverage:.1%} of wall time, below {MIN_COVERAGE:.0%}"
            )
        for layer in TIME_LAYERS:
            add(f"{layer}_s", tr["self_s"].get(layer, 0.0))
        for name in COUNTS:
            add(name, tr["counts"].get(name, 0))
        for layer in CALLS:
            add(f"{layer}_calls", tr["calls"].get(layer, 0))
        scan = tr["self_s"].get("depth.scan", 0.0)
        add("depth.cells_per_s", tr["counts"].get("depth.cells", 0) / scan if scan else 0.0)
        states = tr["counts"].get("assoc.states", 0)
        add("assoc.useful_ratio",
            tr["counts"].get("assoc.distinct_covers", 0) / states if states else 0.0)
        add("cli.self_s", cli_self)
        add("trace.coverage", coverage)
        add("trace.overhead", sum(normalised_walls(traced)) / sum(normalised_walls(plain)))
    units = {"depth.cells_per_s": "1/s", "assoc.useful_ratio": "ratio",
             "trace.coverage": "ratio", "trace.overhead": "ratio"}
    return {
        name: {
            "value": statistics.median(vals),
            "unit": units.get(name, "s" if name.endswith("_s") else "count"),
        }
        for name, vals in samples.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgedepth" / "cli.py").is_file():
        print(f"error: no edgedepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S + 20
    workdir = WORK / f"{os.getpid():07d}"
    try:
        jobs = corpus.build_jobs(args.workload, args.seed, workdir, corpus.load_expected())
        jobs_file = workdir / "jobs.json"
        jobs_file.write_text(json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]))
        reference_kernel()

        passes: list[dict] = []  # untraced
        pairs: list[tuple[dict, dict]] = []
        setups: list[float] = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(["--probe"], deadline)[1])
        t0 = time.monotonic()
        need = 1 if args.trace else MIN_PASSES
        while len(passes) < need or time.monotonic() - t0 < args.seconds:
            now = time.monotonic()
            if passes and now - start + (now - t0) / len(passes) > RUN_BUDGET_S:
                break
            plain = run_pass(jobs_file, False, deadline)
            passes.append(plain)
            setups.append(plain["setup_s"])
            if args.trace:
                pairs.append((plain, run_pass(jobs_file, True, deadline)))

        all_passes = passes + [t for _, t in pairs]
        per_pass = [check_pass(jobs, p) for p in all_passes]
        failed = sum(len(f) for f in per_pass)
        failures = sorted({line for f in per_pass for line in f})
        attempted = sum(len(p["jobs"]) for p in all_passes)
        metrics = per_layer(args.workload, pairs) if args.trace else end_to_end(passes, setups)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_s": setups,
        "passes": [
            {
                "traced": "trace" in p,
                "setup_s": p["setup_s"],
                "rss_mb": p["rss_kb"] / 1024,
                "wall_s": _wall(p),
                "norm_wall_s": sum(normalised_walls(p)),
                "ref_s": p["ref_s"],
                "jobs": {
                    j["id"]: [rec["rc"], rec["wall"], rec["ref"]] for j, rec in zip(jobs, p["jobs"])
                },
            }
            for p in all_passes
        ],
        "failures": failures,
    }
    print(json.dumps(record))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
