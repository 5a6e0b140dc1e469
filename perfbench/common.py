"""Shared pieces of the benchmark: timing, percentiles, digests, results."""

from __future__ import annotations

import hashlib
import pickle
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Results, trace files and scratch space of every run (git-ignored).
RESULTS = HERE / "results"
#: Latency percentiles need this many samples per shape, so that at
#: least ten samples lie beyond p90.
MIN_SAMPLES = 100
#: Longest a measuring loop may run, whatever the sample floor says.
HARD_LIMIT_S = 120.0
#: Timed set-ups per run, at least this many and for at least this long,
#: so a short set-up is sampled over seconds, not over one slow moment;
#: ``setup_s`` is their median.  The texts are generated once, before
#: them: set-up times the program's own work.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

E2E_METRICS = (
    ("setup_s", "s"),
    ("star_ms_p50", "ms"),
    ("chain_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).  A layer the workload never enters
#: reads 0; README.md maps each one to the end-to-end metric it moves.
LAYER_METRICS = (
    ("core.grouping_ms", "ms"),
    ("core.set_cover_ms", "ms"),
    ("core.rewritings", "count"),
    ("core.minimize_ms", "ms"),
    ("core.canonical_db_ms", "ms"),
    ("core.view_tuples_ms", "ms"),
    ("core.tuple_cores_ms", "ms"),
    ("core.view_classes", "count"),
    ("views.relevant_views_ms", "ms"),
    ("views.touched_ratio", "ratio"),
    ("containment.hom_searches", "count"),
    ("containment.hom_nodes", "count"),
    ("containment.fast_path_share", "ratio"),
    ("containment.cache_hit_rate", "ratio"),
    ("planner.preflight_ms", "ms"),
    ("cost.ranking_ms", "ms"),
    ("cost.m2_ms", "ms"),
    ("cost.m3_ms", "ms"),
    ("cost.annotate_ms", "ms"),
    ("cost.execute_ms", "ms"),
    ("cost.orders_executed", "count"),
    ("datalog.parse_ms", "ms"),
    ("service.execute_ms", "ms"),
    ("service.attempts", "count"),
    ("parallel.request_kib", "KiB"),
    ("parallel.unpickle_ms", "ms"),
    ("parallel.worker_busy_share", "ratio"),
    ("parallel.pool_hit_rate", "ratio"),
    ("parallel.pool_delta_hits", "count"),
    ("parallel.pool_misses", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.loop_blocked_ms", "ms"),
    ("serve.journal_append_ms", "ms"),
    ("serve.update_ms_p50", "ms"),
    ("analysis.audit_ms", "ms"),
    ("serve.shed", "count"),
    ("trace.overhead", "ratio"),
)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rewriting_digest(texts, extra: str = "") -> str:
    """sha256 over the sorted rewriting texts (plus *extra*, e.g. a plan)."""
    digest = hashlib.sha256()
    for text in sorted(texts):
        digest.update(text.encode())
        digest.update(b"\n")
    digest.update(extra.encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(build):
    """Run *build* :data:`SETUP_REPEATS` times or more, until
    :data:`SETUP_MIN_SECONDS` have passed; returns (last result, median
    seconds).

    Each earlier result is closed (when it has a ``close``) and dropped
    before the next set-up starts, so repeats never hold resources side
    by side and ``peak_rss_mb`` sees one set-up at a time.
    """
    seconds = []
    result = None
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_SECONDS:
        if hasattr(result, "close"):
            result.close()
        result = None
        started = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - started)
    return result, statistics.median(seconds)


@dataclass
class Samples:
    """Latency samples by shape plus operation counts for one run."""

    latencies: dict = field(default_factory=lambda: {"star": [], "chain": []})
    #: The same latencies by (shape, ``nondistinguished`` value).
    classes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    completed_plans: int = 0
    window_seconds: float = 0.0

    def record(self, shape: str, nondistinguished: int, seconds: float) -> None:
        ms = seconds * 1000.0
        self.latencies[shape].append(ms)
        self.classes.setdefault((shape, nondistinguished), []).append(ms)

    def p50(self, shape: str) -> float:
        """Median latency of *shape*, per ``nondistinguished`` value, averaged.

        Chain queries with a nondistinguished variable plan about 40%
        slower than those without, and the two modes barely overlap, so
        the median of the mixed samples would fall in the gap between
        them, set by the slowest sample of one mode and the fastest of
        the other.
        """
        medians = [median(v) for (s, _nd), v in self.classes.items() if s == shape]
        return statistics.fmean(medians) if medians else 0.0

    def enough(self) -> bool:
        return all(len(v) >= MIN_SAMPLES for v in self.latencies.values())


def trace_overhead(traced: Samples, plain: Samples) -> float:
    """Traced ÷ untraced :meth:`Samples.p50`, per shape, averaged.

    Star and chain latencies differ by an order of magnitude, so each
    shape gets its own ratio.
    """
    ratios = [
        traced.p50(shape) / plain.p50(shape)
        for shape in traced.latencies
        if traced.latencies[shape] and plain.latencies[shape]
    ]
    return statistics.fmean(ratios) if ratios else 0.0


def end_to_end(samples: Samples, setup_seconds: float) -> dict:
    values = {
        "setup_s": setup_seconds,
        "star_ms_p50": samples.p50("star"),
        "chain_ms_p50": samples.p50("chain"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}


def run_notes(samples: Samples, check) -> dict:
    """The readable extras every run prints before its JSON line.

    Throughput and the p90 latencies are printed, not gated: their
    run-to-run spread exceeded the largest bound a gated metric may have
    (see README.md).
    """
    return {
        "failed_share": samples.failed / max(1, samples.attempted),
        "samples": {shape: len(v) for shape, v in samples.latencies.items()},
        "throughput_per_s": samples.completed_plans / samples.window_seconds,
        "star_ms_p90": p90(samples.latencies["star"]),
        "chain_ms_p90": p90(samples.latencies["chain"]),
        "digests": check.expected,
    }


def layer_metrics(values: dict) -> dict:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_METRICS
    }


@dataclass
class RunResult:
    """What one workload run reports."""

    attempted: int
    failed: int
    metrics: dict
    input_sha: str
    #: Human-readable extras printed before the JSON line.
    notes: dict = field(default_factory=dict)
    issues: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.issues


def run_result(samples: Samples, metrics: dict, check, input_sha: str,
               **notes) -> RunResult:
    """The :class:`RunResult` of a finished run; *notes* extend the printout."""
    return RunResult(
        attempted=samples.attempted,
        failed=samples.failed,
        metrics=metrics,
        input_sha=input_sha,
        notes={**run_notes(samples, check), **notes},
        issues=check.issues,
    )


def median_rows(rows, name: str) -> float:
    """Per-operation median of *name*, taken per shape and averaged.

    Star and chain operations differ by an order of magnitude, so one
    median over both would land on whichever mode holds the middle
    sample; averaging the two shape medians keeps both in the number.
    Only rows that have *name* (operations that entered the layer)
    count; with none, the layer reads 0.
    """
    medians = [
        median(row[name] for row in rows if row["shape"] == shape and name in row)
        for shape in sorted({row["shape"] for row in rows if name in row})
    ]
    return sum(medians) / len(medians) if medians else 0.0


def time_limit_reached(started: float, seconds: float, samples: Samples,
                       need_samples: bool) -> bool:
    """Whether a measuring loop may stop now.

    The loop runs for *seconds* and, when *need_samples*, until every
    shape has :data:`MIN_SAMPLES` latencies, but never past
    :data:`HARD_LIMIT_S`, so a run always ends within its time box.
    """
    elapsed = time.perf_counter() - started
    if elapsed >= HARD_LIMIT_S:
        return True
    return elapsed >= seconds and (not need_samples or samples.enough())


#: Profile phases reported by worker processes -> layer metric.
_PHASE_METRICS = {
    "core.grouping_ms": "grouping",
    "core.set_cover_ms": "set_cover",
    "core.minimize_ms": "minimize",
    "core.canonical_db_ms": "canonical_db",
    "core.view_tuples_ms": "view_tuples",
    "core.tuple_cores_ms": "tuple_cores",
    "planner.preflight_ms": "preflight",
    "datalog.parse_ms": "parse",
}


def outcome_row(outcome: dict, shape: str) -> dict:
    """Layer numbers one worker outcome (with its ``profile``) carries."""
    profile = outcome.get("profile") or {}
    phases = profile.get("phase_seconds", {})
    search = profile.get("search", {})
    row = {m: phases.get(p, 0.0) * 1e3 for m, p in _PHASE_METRICS.items()}
    searches = search.get("hom_searches", 0)
    row.update(
        {
            "shape": shape,
            "containment.hom_searches": searches,
            "containment.hom_nodes": search.get("hom_nodes", 0),
            "containment.fast_path_share": (
                search.get("fast_path_searches", 0) / searches if searches else 0.0
            ),
            "core.rewritings": len(outcome.get("rewritings", ())),
            "service.execute_ms": outcome.get("elapsed_ms", 0.0),
            "service.attempts": outcome.get("attempts", 0),
        }
    )
    return row


def request_size(requests) -> tuple[float, float]:
    """Median pickled KiB and unpickle ms of worker tasks.

    *requests* holds ``(query text, catalog)`` pairs; each becomes the
    ``WorkerTask`` the batch engine and the daemon ship to a worker.
    """
    from repro import parse_query
    from repro.parallel.worker import WorkerTask
    from repro.service.executor import PlanRequest

    sizes, seconds = [], []
    for index, (query, catalog) in enumerate(requests):
        blob = pickle.dumps(WorkerTask(index, PlanRequest(parse_query(query), catalog)))
        started = time.perf_counter()
        pickle.loads(blob)
        seconds.append(time.perf_counter() - started)
        sizes.append(len(blob) / 1024.0)
    return median(sizes), median(seconds) * 1e3

