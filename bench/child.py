"""One measured pass: a fresh process that imports edgedepth once and runs a
job list through ``edgedepth.cli.main`` in order, as a CLI user would.

Usage: python3 bench/child.py JOBS.json --sync RFD,WFD [--trace]
       python3 bench/child.py --probe      (import only, for set-up time)

Before the first job, before any job that starts REF_GAP_S or more after
the last reference point, and after the last job, the child makes a
reference point: it writes one byte, a number of kernel runs, to WFD and
waits for one byte on RFD.  The parent runs the reference kernel
(bench/reference.py) that many times meanwhile, so the two never run at
once.  A point asks for one run plus one per REF_DUTY_S of job time since
the last point, so the kernel's share of a pass stays near 10% and long
jobs get well-measured points on either side.

Prints one JSON object on stdout: the monotonic time at which the package
was imported and ready, the peak RSS, and per job the exit code, wall
seconds, captured output and the index of the reference point just before it.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, "src")  # relative: the parent runs this from ROOT

import edgedepth.cli  # noqa: E402

READY = time.monotonic()

# Harness-only imports come after READY, so set-up time covers the
# interpreter start and the package import alone.
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

# Jobs that start within this long of the last reference point share it.
REF_GAP_S = 1.0
REF_DUTY_S = 0.8


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in kB.  ru_maxrss is no
    good here: Linux carries the parent's peak across fork and exec, and
    the parent holds the reference kernel's buffers."""
    try:
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = edgedepth.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI would die with a traceback: exit 1
            traceback.print_exc()
            rc = 1
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def main() -> int:
    src = Path(edgedepth.cli.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"imported edgedepth from {src}, not from this checkout", file=sys.stderr)
        return 2
    result = {"ready": READY}
    if sys.argv[1] != "--probe":
        jobs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
        rfd, wfd = (int(fd) for fd in sys.argv[sys.argv.index("--sync") + 1].split(","))
        tracer = None
        if "--trace" in sys.argv[2:]:
            from tracer import Tracer  # bench/ is on sys.path as the script's directory

            tracer = Tracer()
            tracer.install()

        refs, last_ref = 0, 0.0

        def reference_run() -> None:
            nonlocal refs, last_ref
            runs = 1 + int((time.perf_counter() - last_ref) / REF_DUTY_S) if refs else 2
            os.write(wfd, bytes([min(runs, 255)]))
            if os.read(rfd, 1) != b"k":
                raise SystemExit("reference handshake broken")
            refs += 1
            last_ref = time.perf_counter()

        records = []
        for job in jobs:
            if not refs or time.perf_counter() - last_ref >= REF_GAP_S:
                reference_run()
            rc, wall, out, err = run_job(job["argv"])
            rec = {"rc": rc, "wall": wall, "out": out, "err": err[-2000:], "ref": refs - 1}
            if tracer is not None:
                rec["top"] = tracer.reset_top()
            records.append(rec)
        reference_run()
        os.close(wfd)
        os.close(rfd)
        result["jobs"] = records
        if tracer is not None:
            result["trace"] = {
                "self_s": dict(tracer.self_s),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
            }
    result["rss_kb"] = peak_rss_kb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
