"""In-memory span tracer that wraps the program's public functions.

Spans are recorded from outside the program: :meth:`Tracer.enable`
replaces each named function at its module bindings (or each method on
its class) with a wrapper that times the call, and :meth:`disable` puts
the originals back.  A span keeps its name, start, end, parent span,
request id and thread; self time is its duration minus the time its
child spans cover.  Spans stay in memory until :meth:`write_chrome`
writes them as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open as is.  Worker processes record no spans.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass

#: (span name, module, attribute, every repro binding?) for functions;
#: (span name, module, class, method) for methods.  The core phases are
#: wrapped only where CoreCover calls them.
FUNCTIONS = (
    ("core.grouping", "repro.core.corecover", "group_equivalent_views", False),
    ("core.view_tuples", "repro.core.corecover", "view_tuples", False),
    ("core.tuple_cores", "repro.core.corecover", "tuple_cores", False),
    ("core.set_cover", "repro.core.corecover", "minimum_covers", False),
    ("datalog.parse", "repro.datalog.parser", "parse_query", True),
    ("cost.m2", "repro.cost.optimizer", "best_rewriting_m2", True),
    ("cost.m3", "repro.cost.optimizer", "optimal_plan_m3", True),
    ("cost.annotate", "repro.cost.optimizer", "heuristic_plan", True),
    ("cost.execute", "repro.cost.optimizer", "execute_plan", True),
)
METHODS = (
    ("views.relevant_views", "repro.views.view", "ViewCatalog", "relevant_views"),
    ("serve.catalog_update", "repro.serve.catalogs", "CatalogRegistry", "update"),
    ("serve.journal_append", "repro.serve.journal", "CatalogJournal", "append"),
    ("analysis.audit", "repro.analysis.catalog.auditor", "CatalogAuditor", "audit"),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request_id: str | None
    thread: int
    self_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _Frame:
    __slots__ = ("index", "children_ns")

    def __init__(self, index: int) -> None:
        self.index = index
        self.children_ns = 0


class Tracer:
    """Spans of the wrapped calls, kept in memory; see the module docstring."""

    def __init__(self) -> None:
        #: Completed spans by index; ``None`` while a span is still open.
        self.spans: list[Span | None] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- request ids ---------------------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        """Tag this thread's later spans with *request_id*."""
        self._local.request_id = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------
    def wrap(self, name: str, function):
        """*function* recording a span called *name* for each call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1].index if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserved; filled on exit
            frame = _Frame(index)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1].children_ns += end - start
                tracer.spans[index] = Span(
                    name,
                    start,
                    end,
                    parent,
                    getattr(tracer._local, "request_id", None),
                    threading.get_ident(),
                    end - start - frame.children_ns,
                )

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def enable(self, request_tag=None) -> None:
        """Install the wrappers.

        *request_tag* is an optional ``(module, function)`` whose return
        value (a decoded frame) tags the calling thread's later spans
        with the frame's ``id``; the serve workload passes the daemon's
        frame decoder, so event-loop spans carry their request ids.
        """
        import importlib

        for name, module_name, attribute, everywhere in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original)
            owners = [module]
            if everywhere:
                owners = [
                    loaded
                    for key, loaded in list(sys.modules.items())
                    if key.split(".")[0] == "repro"
                    and getattr(loaded, attribute, None) is original
                ]
            for owner in owners:
                self._patch(owner, attribute, wrapper)
        for name, module_name, class_name, method in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, method, self.wrap(name, getattr(owner, method)))
        if request_tag is not None:
            module, attribute = request_tag
            decode = getattr(module, attribute)
            tracer = self

            def tagged(*args, **kwargs):
                payload = decode(*args, **kwargs)
                rid = payload.get("id") if isinstance(payload, dict) else None
                tracer.set_request(None if rid is None else str(rid))
                return payload

            self._patch(module, attribute, tagged)

    def disable(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------
    def finished(self):
        """``(index, span)`` for every completed span."""
        return [(i, span) for i, span in enumerate(self.spans) if span is not None]

    def per_request(self, name: str, *, inclusive: bool = False) -> dict:
        """Milliseconds in spans called *name*, summed per request id.

        Spans without a request id each count as their own request.
        """
        totals: dict = {}
        for index, span in self.finished():
            if span.name != name:
                continue
            key = span.request_id if span.request_id is not None else f"#{index}"
            ns = span.duration_ns if inclusive else span.self_ns
            totals[key] = totals.get(key, 0.0) + ns / 1e6
        return totals

    def count_per_request(self, name: str) -> dict:
        counts: dict = {}
        for _index, span in self.finished():
            if span.name == name:
                counts[span.request_id] = counts.get(span.request_id, 0) + 1
        return counts

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome trace-event ("X" complete) event."""
        spans = self.finished()
        origin = min((span.start_ns for _i, span in spans), default=0)
        threads: dict = {}
        events = []
        for index, span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start_ns - origin) / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "span": index,
                        "parent": span.parent,
                        "request_id": span.request_id,
                        "self_us": span.self_ns / 1000.0,
                    },
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
