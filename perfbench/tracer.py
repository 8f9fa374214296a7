"""Spans around mmot's public functions, recorded from outside the program.

The tracer replaces a function at each module attribute through which the
program calls it (`mmot.cli.solve_mmot`, `mmot.lp.max_dual_excess`, ...)
with a wrapper that records one span per call: bucket name, start, end,
parent span and the (round, op) it belongs to.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its child spans; calls are synchronous, so children never
overlap and the self times of all spans add up to the time covered by the
root spans.

grid functions are not wrapped: they run in inner loops, where a wrapper
would cost more than the work it times.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, bucket).  The same function can sit in several
# buckets when different callers reach it through different modules.
WRAPS = (
    ("cli", "main", "cli.self"),
    ("cli", "discretize", "measure.discretize"),
    ("harness", "discretize", "measure.discretize"),
    ("transport", "pair_recip_matrix", "cost.pair_matrix"),
    ("transport", "pair_recip_matrix_points", "cost.pair_matrix"),
    ("cli", "solve_mmot", "lp.solve_mmot_self"),
    ("harness", "solve_mmot", "lp.solve_mmot_self"),
    ("lp", "solve_transport", "lp.solve_transport_self"),
    ("lp", "price_columns", "lp.price_columns"),
    ("lp", "max_dual_excess", "lp.refine_rescan"),
    ("cli", "verify_duality", "transport.verify_self"),
    ("harness", "verify_duality", "transport.verify_self"),
    ("transport", "max_dual_excess", "transport.dual_rescan"),
    ("transport", "plan_cost", "transport.plan_cost"),
    ("transport", "bound_parameters", "transport.bound_parameters"),
    ("transport", "diagonal_clearance", "transport.clearance"),
    ("cli", "save_plan", "transport.file_io"),
    ("cli", "save_potentials", "transport.file_io"),
    ("cli", "load_plan", "transport.file_io"),
    ("cli", "load_potentials", "transport.file_io"),
    ("cli", "converge", "harness.converge_self"),
    ("harness", "product_plan_cost", "harness.product_cost"),
)
BUCKETS = tuple(dict.fromkeys(bucket for _, _, bucket in WRAPS))
# buckets whose calls are watched for new high-water marks of the resident set
PEAK_BUCKETS = ("lp.solve_mmot_self", "measure.discretize")


def peak_rss() -> int:
    """High-water mark of this process's resident set, in bytes.

    This is Linux's VmHWM.  ru_maxrss would not do: a process started by
    vfork or posix_spawn keeps its parent's mark in it across exec.
    """
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError("no VmHWM in /proc/self/status")


class Tracer:
    """Wraps the functions in WRAPS and records their spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, bucket, start, end, parent, round, op)
        self.where = (None, None)  # (round, op) of the span being opened
        self._stack: list[tuple[int, str]] = []  # (id, bucket) of the open spans
        self._next = 0
        self._saved: list[tuple] = []
        self.base_rss = self._mark = 0
        # {bucket: highest high-water mark set while one of its calls was open}
        self.marks = {bucket: 0 for bucket in PEAK_BUCKETS}

    def install(self, modules: dict) -> None:
        self.base_rss = self._mark = peak_rss()
        for mod_name, attr, bucket in WRAPS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, bucket))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _watch(self) -> None:
        """Credit a new high-water mark to every bucket in PEAK_BUCKETS with
        an open call: the resident set reached it since the last call of
        such a bucket opened or closed."""
        mark = peak_rss()
        if mark > self._mark:
            self._mark = mark
            for _sid, bucket in self._stack:
                if bucket in self.marks:
                    self.marks[bucket] = mark

    def _wrap(self, fn, bucket: str):
        watch = bucket in PEAK_BUCKETS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1][0] if self._stack else None
            if watch:
                self._watch()
            self._stack.append((sid, bucket))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if watch:
                    self._watch()
                self._stack.pop()
                self.spans.append((sid, bucket, start, end, parent) + self.where)

        return traced

    def peak_rise(self, bucket: str) -> int:
        """Bytes by which the highest high-water mark set inside a call of
        `bucket` exceeds the one at install(); 0 if its calls set none."""
        return max(self.marks[bucket] - self.base_rss, 0)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{bucket: (total self seconds, calls)} over all recorded spans."""
        child = {}
        for _sid, _bucket, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {b: (0.0, 0) for b in BUCKETS}
        for sid, bucket, start, end, *_ in self.spans:
            secs, calls = out[bucket]
            out[bucket] = (secs + (end - start) - child.get(sid, 0.0), calls + 1)
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _s, _b, start, end, parent, *_ in self.spans if parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,round,op\n")
            for sid, bucket, start, end, parent, rnd, op in self.spans:
                fh.write(
                    f"{sid},{bucket},{start!r},{end!r},"
                    f"{'' if parent is None else parent},{rnd},{op}\n"
                )
