"""The Section 7 experiment harness.

Each Figure 6-9 data point averages CoreCover over several random queries
at a fixed number of views.  The harness runs those sweeps and returns
structured rows; :mod:`repro.experiments.figures` maps figure names to
sweep configurations and renders the rows as the paper's series.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import Callable, Sequence

from ..core.corecover import CoreCoverResult, core_cover
from ..planner.context import PlannerContext
from ..workload.generator import WorkloadConfig, workload_series


@dataclass(frozen=True)
class SweepPoint:
    """Averaged measurements for one (shape, #views) configuration."""

    num_views: int
    queries: int
    mean_time_ms: float
    max_time_ms: float
    mean_view_classes: float
    mean_total_view_tuples: float
    mean_view_tuple_classes: float
    mean_maximal_tuple_classes: float
    mean_gmr_count: float
    mean_gmr_size: float
    mean_hom_searches: float = 0.0
    mean_cache_hits: float = 0.0
    mean_cache_hit_rate: float = 0.0


@dataclass(frozen=True)
class SweepConfig:
    """A full sweep: the workload template plus the view-count axis."""

    shape: str
    num_relations: int
    nondistinguished: int
    view_counts: tuple[int, ...]
    queries_per_point: int = 40
    query_subgoals: int = 8
    seed: int = 1

    def workload_config(self, num_views: int) -> WorkloadConfig:
        """The workload template at a specific view count."""
        return WorkloadConfig(
            shape=self.shape,
            num_relations=self.num_relations,
            query_subgoals=self.query_subgoals,
            num_views=num_views,
            nondistinguished=self.nondistinguished,
            seed=self.seed,
        )


@dataclass
class _PointSamples:
    """Per-query measurements accumulated for one sweep point."""

    times_ms: list[float] = dataclasses_field(default_factory=list)
    view_classes: list[int] = dataclasses_field(default_factory=list)
    total_tuples: list[int] = dataclasses_field(default_factory=list)
    tuple_classes: list[int] = dataclasses_field(default_factory=list)
    maximal_classes: list[int] = dataclasses_field(default_factory=list)
    gmr_counts: list[int] = dataclasses_field(default_factory=list)
    gmr_sizes: list[int] = dataclasses_field(default_factory=list)
    hom_searches: list[int] = dataclasses_field(default_factory=list)
    cache_hits: list[int] = dataclasses_field(default_factory=list)
    cache_hit_rates: list[float] = dataclasses_field(default_factory=list)

    def add(
        self,
        *,
        time_ms: float,
        stats,
        gmr_count: int,
        gmr_size: int | None,
    ) -> None:
        self.times_ms.append(time_ms)
        self.view_classes.append(stats.view_classes)
        self.total_tuples.append(stats.total_view_tuples)
        self.tuple_classes.append(stats.view_tuple_classes)
        self.maximal_classes.append(stats.maximal_tuple_classes)
        self.gmr_counts.append(gmr_count)
        self.hom_searches.append(stats.hom_searches)
        self.cache_hits.append(stats.cache_hits)
        self.cache_hit_rates.append(stats.cache_hit_rate)
        if gmr_size is not None:
            self.gmr_sizes.append(gmr_size)

    def to_point(self, num_views: int, queries: int) -> SweepPoint:
        return SweepPoint(
            num_views=num_views,
            queries=queries,
            mean_time_ms=statistics.fmean(self.times_ms),
            max_time_ms=max(self.times_ms),
            mean_view_classes=statistics.fmean(self.view_classes),
            mean_total_view_tuples=statistics.fmean(self.total_tuples),
            mean_view_tuple_classes=statistics.fmean(self.tuple_classes),
            mean_maximal_tuple_classes=statistics.fmean(self.maximal_classes),
            mean_gmr_count=statistics.fmean(self.gmr_counts),
            mean_gmr_size=(
                statistics.fmean(self.gmr_sizes) if self.gmr_sizes else 0.0
            ),
            mean_hom_searches=statistics.fmean(self.hom_searches),
            mean_cache_hits=statistics.fmean(self.cache_hits),
            mean_cache_hit_rate=statistics.fmean(self.cache_hit_rates),
        )


def run_sweep(
    config: SweepConfig,
    algorithm: Callable[..., CoreCoverResult] = core_cover,
    group_views: bool = True,
    group_tuples: bool = True,
    caching: bool | None = None,
) -> list[SweepPoint]:
    """Run CoreCover over the sweep, averaging per view count.

    ``algorithm`` may be swapped (e.g. for ``core_cover_star`` or an
    ablated variant); it must accept ``(query, views, group_views=...,
    group_tuples=...)`` and return a :class:`CoreCoverResult`.

    With ``caching=True`` (or ``False``) a shared
    :class:`PlannerContext` with memoization on (or off) is threaded
    through all queries of each sweep point, so structurally repeated
    view definitions are planned once per point; ``None`` keeps the
    legacy behaviour of a private context per call.
    """
    points = []
    for num_views in config.view_counts:
        template = config.workload_config(num_views)
        context = None if caching is None else PlannerContext(caching=caching)
        samples = _PointSamples()
        for workload in workload_series(template, config.queries_per_point):
            started = time.perf_counter()
            kwargs = {} if context is None else {"context": context}
            result = algorithm(
                workload.query,
                workload.views,
                group_views=group_views,
                group_tuples=group_tuples,
                **kwargs,
            )
            samples.add(
                time_ms=(time.perf_counter() - started) * 1000.0,
                stats=result.stats,
                gmr_count=len(result.rewritings),
                gmr_size=(
                    (result.minimum_subgoals() or 0)
                    if result.has_rewriting
                    else None
                ),
            )
        points.append(samples.to_point(num_views, config.queries_per_point))
    return points


def write_csv(points: Sequence[SweepPoint], path: str) -> None:
    """Write sweep points to a CSV file (one row per view count)."""
    import csv
    import dataclasses

    fields = [f.name for f in dataclasses.fields(SweepPoint)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for point in points:
            writer.writerow(
                [getattr(point, field) for field in fields]
            )


def format_points(points: Sequence[SweepPoint]) -> str:
    """Render sweep points as an aligned text table."""
    header = (
        f"{'views':>6} {'time(ms)':>9} {'max(ms)':>9} {'viewcls':>8} "
        f"{'tuples':>7} {'tuplecls':>9} {'maxcls':>7} {'GMRs':>6} {'|GMR|':>6} "
        f"{'homs':>7} {'hit%':>5}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.num_views:>6} {p.mean_time_ms:>9.1f} {p.max_time_ms:>9.1f} "
            f"{p.mean_view_classes:>8.1f} {p.mean_total_view_tuples:>7.1f} "
            f"{p.mean_view_tuple_classes:>9.1f} "
            f"{p.mean_maximal_tuple_classes:>7.1f} {p.mean_gmr_count:>6.1f} "
            f"{p.mean_gmr_size:>6.2f} {p.mean_hom_searches:>7.1f} "
            f"{p.mean_cache_hit_rate:>5.0%}"
        )
    return "\n".join(lines)
