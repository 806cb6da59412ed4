"""Span tracing of partsums from outside the package.

`Tracer.install` rebinds the public functions listed in `LAYERS` on every
loaded `partsums` module, including names a module pulled in with
`from ... import` (for example `cli.forward`).  Each call then records a
span `[layer, start, end, parent, nbytes]` in memory; nothing is written
until the child hands the list back to the driver.  `summarize` turns the
span lists of a pass's processes into per-layer self time, call counts and
table I/O bytes.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, function) -> layer name.  Helper functions that are called very
# often and do little (euler_gamma, check_partition, ...) stay unwrapped, so
# their time counts towards the layer that calls them.
LAYERS = {
    ("exact", "partition_counts"): "exact.partition_counts",
    ("exact", "divisor_tables"): "exact.divisor_tables",
    ("exact", "total_subsum"): "exact.total_subsum",
    ("exact", "save_p_table"): "exact.table_io",
    ("exact", "load_p_table"): "exact.table_io",
    ("exact", "save_divisor_tables"): "exact.table_io",
    ("exact", "load_divisor_tables"): "exact.table_io",
    ("exact", "preload_partition_counts"): "exact.table_io",
    ("exact", "adopt_divisor_tables"): "exact.table_io",
    ("exact", "subsum_distribution"): "exact.subsum_distribution",
    ("exact", "theorem1_check"): "exact.theorem1",
    ("exact", "f_table"): "exact.theorem1",
    ("exact", "a000712"): "exact.theorem1",
    ("exact", "restricted_counts"): "exact.theorem1",
    ("bijection", "forward"): "bijection",
    ("bijection", "inverse"): "bijection",
    ("asymptotics", "gamma_mh_roots"): "asymptotics.gamma",
    ("asymptotics", "gamma_mh_gauss"): "asymptotics.gamma",
    ("asymptotics", "gamma_mh_digamma"): "asymptotics.gamma",
    ("asymptotics", "digamma_rational"): "asymptotics.gamma",
    ("asymptotics", "b_coeff"): "asymptotics.coeff",
    ("asymptotics", "c_coeff"): "asymptotics.coeff",
    ("asymptotics", "c_coeff_via_gammas"): "asymptotics.coeff",
    ("asymptotics", "predict_expected_subsum"): "asymptotics.coeff",
    ("asymptotics", "lambert_tau_exact"): "asymptotics.lambert",
    ("asymptotics", "lambert_tau_asymptotic"): "asymptotics.lambert",
    ("asymptotics", "tail_coefficient"): "asymptotics.lambert",
    ("asymptotics", "bernoulli_numbers"): "asymptotics.lambert",
    ("asymptotics", "bernoulli_poly"): "asymptotics.lambert",
    ("cli", "main"): "cli",
    ("cli", "emit"): "cli.emit",
}

SAVES = {"save_p_table", "save_divisor_tables"}
LOADS = {"load_p_table", "load_divisor_tables"}


class Tracer:
    """Holds the spans of one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.loads = 0
        self.saves = 0
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name in SAVES or name in LOADS:
            is_save = name in SAVES

            @functools.wraps(fn)
            def io_wrapper(fh, *args, **kwargs):
                pos = fh.tell() if is_save else 0
                idx = len(spans)
                span = [layer, clock(), 0.0, stack[-1] if stack else -1, 0]
                spans.append(span)
                stack.append(idx)
                try:
                    return fn(fh, *args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                    if is_save:
                        self.saves += 1
                        span[4] = fh.tell() - pos
                    else:
                        self.loads += 1
                        span[4] = os.fstat(fh.fileno()).st_size

            return io_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever a partsums module holds it."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "partsums" or name.startswith("partsums."))
        ]
        wrappers = {}
        for (modname, fname), layer in LAYERS.items():
            fn = getattr(sys.modules[f"partsums.{modname}"], fname)
            wrappers[id(fn)] = (fn, self._wrap(fn, layer, fname))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def summarize(span_lists: list[list[list]]) -> dict:
    """Per-layer self seconds, call counts and bytes over job processes.

    Each list holds one process's spans; parent indices point into the
    same list.  A span's self time is its duration minus the time its
    child spans cover.  Children never overlap, because the traced code is
    single-threaded, so the covered time is the sum of their durations.
    """
    out: dict[str, dict] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for layer, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (layer, t0, t1, _, nbytes) in enumerate(spans):
            entry = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "bytes": 0})
            entry["self_s"] += (t1 - t0) - child_time[idx]
            entry["calls"] += 1
            entry["bytes"] += nbytes
    return out
