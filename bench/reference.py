"""A fixed reference kernel: how fast this machine runs right now.

The benchmark's host is shared with other tenants.  Its speed drifts by 20
to 50% over seconds to minutes, and no estimator inside one run removes a
slow phase that covers the whole run.  So the benchmark times this kernel
between jobs, in the parent process while the child waits for it, and
run.py divides each job's wall time by the mean kernel time around the job.

The kernel is a small copy of the work that dominates the workloads, written
here so that no change to the program can move it:
  - the generator scan's alpha-box keying: a broadcast compare into a
    boolean array, a widening to int64 and a matrix product over 4.2 M
    cells (about 40 MB), then a row-wise np.unique over part of them;
  - the bipartite facet scan's weights: an int64 matrix product, which
    numpy runs in its own loops rather than in BLAS;
  - a pure-Python loop of dict lookups, like the per-class and cover-walk
    code.
Other tenants slow these three by different amounts, so the kernel needs
all of them.  It runs in the parent, so it adds nothing to the child's
peak RSS.  Its arrays are allocated once and reused: a kernel that
allocated fresh arrays on every run changed which huge pages were free when
the child next allocated, and with that the child's peak RSS.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.07  # the kernel's median time on the baseline machine, rounded
ROWS, GENS, VARS = 50_000, 12, 7
UNIQUE_ROWS = 5_000
WEIGHT_ROWS, FACETS = 60_000, 40
PYTHON_ROUNDS = 60_000


class Reference:
    def __init__(self) -> None:
        pattern = np.array([(i * 7919 + i // 3) % 9 for i in range(1021)], dtype=np.int16)
        self.alpha = (np.resize(pattern, ROWS * VARS) - 1).reshape(ROWS, VARS)
        self.gens = np.resize(pattern[::-1] % 5, GENS * VARS).reshape(GENS, VARS)
        self.nonneg = ~(self.alpha < 0)[:, None, :]
        self.pow2 = (1 << np.arange(VARS, dtype=np.int64)).astype(np.int64)
        self.exceed = np.empty((ROWS, GENS, VARS), dtype=bool)
        self.wide = np.empty((ROWS, GENS, VARS), dtype=np.int64)
        self.masks = np.empty((ROWS, GENS), dtype=np.int64)
        self.weights = np.resize(pattern.astype(np.int64), WEIGHT_ROWS * 9).reshape(WEIGHT_ROWS, 9)
        self.comp = np.resize(pattern[::7] % 2, FACETS * 9).astype(np.int64).reshape(9, FACETS)
        self.facet_weights = np.empty((WEIGHT_ROWS, FACETS), dtype=np.int64)
        self.table = {k: (k * 40503) & 1023 for k in range(4096)}
        self.checksum = 0
        self.run()  # warm-up: first touch of every buffer

    def run(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        t0 = time.perf_counter()
        np.greater(self.gens[None, :, :], self.alpha[:, None, :], out=self.exceed)
        self.exceed &= self.nonneg
        self.wide[...] = self.exceed
        np.matmul(self.wide, self.pow2, out=self.masks)
        classes = np.unique(self.masks[:UNIQUE_ROWS], axis=0)
        np.matmul(self.weights, self.comp, out=self.facet_weights)
        selected = int((self.facet_weights <= 3).sum())
        table, acc = self.table, len(classes) + selected
        for i in range(PYTHON_ROUNDS):
            acc += table[(i * 40503 + acc) & 4095]
        self.checksum = acc
        return time.perf_counter() - t0
