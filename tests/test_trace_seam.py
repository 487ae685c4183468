"""The seam between the package and bench/'s tracer: every benchmark job
answers correctly with the tracer installed, and every layer a workload
must call is reached through a wrapped function.

bench/tracer.py wraps package functions by name, and bench/run.py refuses
a traced run in which a required layer saw no call.  A renamed function,
a call that goes past its wrapper, or a counter that reads a removed
attribute shows up here, before the benchmark runs.  Each workload runs in
a fresh interpreter, as a benchmark pass does, so that the memos one
workload fills hide no calls from the next.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgedepth

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_corpus)

# Runs in the child: argv is bench/, the workload and a directory for the
# job files.  Prints the failed checks, the calls per layer and the layers
# bench/run.py requires of the workload, as one JSON object.
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path

bench, workload, workdir = sys.argv[1:4]
sys.path.insert(0, bench)
import corpus
import run
import edgedepth.cli
from tracer import Tracer

jobs = corpus.build_jobs(workload, run.DEFAULT_SEED, Path(workdir), corpus.load_expected())
tracer = Tracer()
tracer.install()
bad = []
for job in jobs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = edgedepth.cli.main(job["argv"])
    bad += [job["id"] + ": " + p for p in corpus.check_job(job, rc, out.getvalue())]
print(json.dumps({
    "jobs": len(jobs),
    "bad": bad,
    "calls": dict(tracer.calls),
    "required": list(run.REQUIRED_LAYERS[workload]),
}))
"""


@pytest.mark.parametrize("workload", _corpus.WORKLOADS)
def test_traced_workload_reaches_every_required_layer(tmp_path, workload):
    src = str(Path(edgedepth.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(BENCH), workload, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["jobs"] > 0 and report["bad"] == []
    missing = [layer for layer in report["required"] if not report["calls"].get(layer)]
    assert report["required"] and missing == []
