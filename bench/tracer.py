"""Self-time tracing of edgedepth's layers from outside the package.

The tracer replaces public functions with timing wrappers.  Modules import
some of them by name (``depth`` binds ``min_nonvanishing_reduced_homology``
and ``power``, ``stability`` binds ``depth_power``), so every module
attribute of the package that holds the original function is patched.
Self time is a wrapper's duration minus the durations of wrapped calls
nested inside it; the bookkeeping a wrapper does after its call ends is
charged to no layer, so it shows up only in ``trace.overhead``.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

# (module, function, layer).  Several functions may share a layer.
TARGETS = (
    ("depth", "depth_power", "depth.scan"),
    ("depth", "depth_bruteforce", "depth.scan"),
    ("simplicial", "min_nonvanishing_reduced_homology", "simplicial.homology"),
    ("monomials", "power", "monomials.power"),
    ("monomials", "associated_primes_bruteforce", "monomials.colon_scan"),
    ("assoc", "cover_states", "assoc.walk"),
    ("assoc", "ass_formula", "assoc.formula"),
    ("stability", "dstab_formula", "stability.formula"),
    ("stability", "dstab_oracle", "stability.oracle"),
    ("graphs", "maximal_independent_sets", "graphs.indep"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time inside outermost wrapped calls
        self._stack: list[list] = []  # [layer, child seconds]

    def install(self) -> None:
        """Patch every package module attribute bound to a target."""
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "edgedepth"]
        for mod_name, fn_name, layer in TARGETS:
            orig = getattr(sys.modules[f"edgedepth.{mod_name}"], fn_name)
            wrapped = self._wrap(layer, orig)
            for mod in mods:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapped)

    def _wrap(self, layer: str, fn):
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[1]
                self.calls[layer] += 1
            if count is not None:
                count(args, kwargs, result)
            spent = time.perf_counter() - t0
            if self._stack:
                self._stack[-1][1] += spent
            else:
                self.top_s += spent
            return result

        return wrapper

    def reset_top(self) -> float:
        """Return and clear the outermost wrapped time of the last job."""
        top, self.top_s = self.top_s, 0.0
        return top

    # Per-layer counters, keyed by the layer name.

    def _count_depth_scan(self, args, kwargs, cert) -> None:
        # depth_power hands non-bipartite graphs to depth_bruteforce; count
        # each scan once, at the outermost depth call.
        if self._stack and self._stack[-1][0] == "depth.scan":
            return
        self.counts["depth.cells"] += math.prod(cert.scan_box)
        self.counts["depth.powers"] += 1

    def _count_monomials_colon_scan(self, args, kwargs, result) -> None:
        ideal = args[0] if args else kwargs["ideal"]
        if ideal.gens:
            self.counts["monomials.colon_scan_cells"] += math.prod(
                max(g[i] for g in ideal.gens) + 1 for i in range(ideal.r)
            )

    def _count_assoc_walk(self, args, kwargs, states) -> None:
        self.counts["assoc.states"] += len(states)
        self.counts["assoc.distinct_covers"] += len(
            {frozenset(s.r_set) | frozenset(s.b_set) for s in states}
        )

    def _count_stability_oracle(self, args, kwargs, n) -> None:
        # dstab_oracle scans powers 1..n and returns n.
        self.counts["stability.oracle_powers"] += n
