"""Spans at the module boundaries of ``tritangle``, recorded from outside.

The benchmark never edits the library.  For a traced pass it replaces each
function listed in :data:`BOUNDARY` with a recording wrapper, everywhere the
function is bound: in its defining module, in every module that re-bound it
with ``from ... import`` (``separability.classify``, the names ``cli``
imports) and in the package namespace.  After the pass the originals are put
back, so untraced passes run the library exactly as shipped.

Each span is (id, name, start_ns, end_ns, parent id, item id), kept in
memory and written out when the run ends.  Self time is a span's duration
minus the durations of its direct children.  Self time, totals and call
counts take in every traced pass; the written spans are those of the first
:data:`KEPT_PASSES` traced passes, whole trees of every item.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

#: Entry points of each layer: ``(module, attribute path)``.  The span name is
#: ``<module>.<last attribute>``.  ``scalars`` is absent on purpose: its
#: functions act on one scalar and cost less than a wrapper; its work shows in
#: the self time of the function that called it and in the ``scalars.*_bits``
#: counts.  ``randstates`` only runs during set-up, which is timed directly.
BOUNDARY = (
    ("hyperdet", "classify"),
    ("hyperdet", "cayley_det"),
    ("hyperdet", "cayley_det_schlafli"),
    ("hyperdet", "sub_concurrences2"),
    ("hyperdet", "display_normalize"),
    ("hyperdet", "submatrix"),
    ("separability", "is_separable"),
    ("separability", "rank1_oracle"),
    ("separability", "extract_factors"),
    ("states", "_StateOps.norm2"),
    ("states", "state_to_json"),
    ("states", "state_from_json"),
    ("bipartite", "det2"),
    ("bipartite", "concurrence2"),
    ("bipartite", "concurrence"),
    ("bipartite", "is_separable_bipartite"),
    ("ketparser", "parse_state"),
    ("ketparser", "state_to_ket"),
    ("unitary", "apply_local_3"),
    ("unitary", "apply_local_2"),
    ("measurement", "collapse"),
    ("cli", "main"),
)

#: Traced passes whose spans are kept for the written trace.  A 25-second
#: traced ``float-haar`` run makes two million spans or more over some 40
#: traced passes, several hundred MB as tuples and over 100 MB as JSON; two
#: passes hold every item's span tree twice, which is what the trace is read
#: for.
KEPT_PASSES = 2

#: The span around one item of a workload; its self time is the benchmark's.
ITEM = "bench.item"


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self):
        self.spans = []
        self.installs = 0
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.calls = Counter()
        self.item = -1
        self._next_id = 0
        self._stack = []  # one [span id, child ns] per open span
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            dur = end - start
            self.self_ns[name] += dur - frame[1]
            self.total_ns[name] += dur
            self.calls[name] += 1
            if parent is not None:
                parent[1] += dur
            if self.installs <= KEPT_PASSES:
                self.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else -1, self.item)
                )

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Replace every binding of every boundary function by a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.installs += 1
        for module_name, _ in BOUNDARY:
            importlib.import_module(f"tritangle.{module_name}")
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "tritangle"]
        for module_name, path in BOUNDARY:
            owner = sys.modules[f"tritangle.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            self._patch(owner, attr, wrapper)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """The recorded spans, with start and end relative to the first."""
        t0 = min((s[2] for s in self.spans), default=0)
        return {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "item"],
            "spans": [[i, n, s - t0, e - t0, p, it] for i, n, s, e, p, it in self.spans],
            "spans_seen": self._next_id,
            "spans_kept": len(self.spans),
            "passes_kept": min(self.installs, KEPT_PASSES),
        }
