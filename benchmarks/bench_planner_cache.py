"""Planner-cache ablation: CoreCover with memoization on vs. off.

Both variants run the Figure 6 star workload through the same
``PlannerContext`` API; the only difference is ``caching``.  The
``extra_info`` deltas (homomorphism searches, tuple-core searches, cache
hit rate) quantify how much of the pipeline's work the memoization layer
absorbs on catalogs with structurally repeated view definitions.
"""

import pytest

from repro.core import core_cover_impl
from repro.planner import PlannerContext
from repro.views import as_view

from conftest import attach_corecover_stats, star_workload

CACHE_VIEW_COUNTS = (250, 500)
ROUNDS = 5


def _fresh_views(workload):
    """Untimed set-up: the workload's views reparsed, with no key memoized.

    Views keep their equivalence keys across plans (generation already
    planned these), which would leave grouping nothing to memoize; each
    round starts from a freshly parsed catalog instead.
    """
    return (([as_view(str(view)) for view in workload.views],), {})


@pytest.mark.parametrize("num_views", CACHE_VIEW_COUNTS)
def test_corecover_caching_enabled(benchmark, num_views):
    workload = star_workload(num_views)

    def run(views):
        return core_cover_impl(
            workload.query, views, context=PlannerContext(caching=True)
        )

    result = benchmark.pedantic(
        run, setup=lambda: _fresh_views(workload), rounds=ROUNDS
    )
    assert result.has_rewriting
    assert result.stats.cache_hits > 0
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", CACHE_VIEW_COUNTS)
def test_corecover_caching_disabled(benchmark, num_views):
    workload = star_workload(num_views)

    def run(views):
        return core_cover_impl(
            workload.query, views, context=PlannerContext(caching=False)
        )

    result = benchmark.pedantic(
        run, setup=lambda: _fresh_views(workload), rounds=ROUNDS
    )
    assert result.has_rewriting
    assert result.stats.cache_hits == 0
    attach_corecover_stats(benchmark, result)
