"""Overhead of the resilient-executor supervision layer.

The service tier wraps every ``plan()`` call in deadline accounting, a
circuit-breaker check, and (on fallback) re-certification.  On the happy
path — primary backend healthy, first attempt succeeds — all of that
must be noise: the budget is <= 10% over a bare ``plan()`` call,
asserted here as ``service_overhead_ratio`` from interleaved, repeated
rounds that are re-measured before the gate fails (see
``conftest.gated_ratio``).

The second series, ``failover_latency_ms``, prices the unhappy path: a
dead primary backend plus the certification toll on the fallback's
answer.  Both numbers land in ``BENCH_corecover.json``.
"""

import time

import pytest

from repro import plan
from repro.planner.registry import (
    _BACKENDS,
    RewriterBackend,
    register_backend,
)
from repro.service import (
    PlanRequest,
    ResilientExecutor,
    RetryPolicy,
    ServicePolicy,
)

from conftest import attach_corecover_stats, gated_ratio, star_workload

NUM_VIEWS = 250
#: CI gate: supervision may cost at most 10% over a bare ``plan()``.
MAX_SERVICE_OVERHEAD = 1.10


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _always_down(query, catalog, *, context, **options):
    raise RuntimeError("benchmark backend: permanently down")


@pytest.fixture()
def down_backend():
    backend = RewriterBackend(
        name="bench-down",
        description="benchmark-only backend that always raises",
        run=_always_down,
    )
    register_backend(backend, replace=True)
    yield backend
    _BACKENDS.pop("bench-down", None)


def test_service_happy_path_overhead(benchmark):
    workload = star_workload(NUM_VIEWS, nondistinguished=0)
    executor = ResilientExecutor(ServicePolicy(chain=("corecover",)))
    request = PlanRequest(workload.query, workload.views)

    outcome = benchmark(executor.execute, request)
    assert outcome.ok
    assert outcome.attempts == 1
    assert outcome.rewritings

    ratio, bare, supervised = gated_ratio(
        lambda: plan(workload.query, workload.views),
        lambda: executor.execute(request),
        MAX_SERVICE_OVERHEAD,
    )
    benchmark.extra_info["service_overhead_ratio"] = ratio
    benchmark.extra_info["bare_seconds"] = bare
    benchmark.extra_info["supervised_seconds"] = supervised
    result = plan(workload.query, workload.views)
    attach_corecover_stats(benchmark, result.details)
    assert ratio <= MAX_SERVICE_OVERHEAD, (
        f"service supervision costs {ratio - 1:.0%} on the happy path "
        "(budget: 10%)"
    )


def test_service_failover_latency(benchmark, down_backend):
    workload = star_workload(NUM_VIEWS, nondistinguished=0)
    policy = ServicePolicy(
        chain=("bench-down", "corecover"),
        retry=RetryPolicy(max_attempts=1, base_delay=0.0),
    )
    request = PlanRequest(workload.query, workload.views)

    def fail_over():
        # A fresh executor per call keeps the dead backend's breaker
        # closed, so every round pays the full failover path: the dead
        # attempt, the chain walk, and fallback re-certification.
        outcome = ResilientExecutor(
            policy, sleep=lambda _delay: None
        ).execute(request)
        assert outcome.ok
        assert outcome.backend_used == "corecover"
        assert outcome.attempts == 2
        return outcome

    benchmark(fail_over)

    bare = _best_of(lambda: plan(workload.query, workload.views))
    failover = _best_of(fail_over)
    benchmark.extra_info["failover_latency_ms"] = (failover - bare) * 1000
    benchmark.extra_info["failover_seconds"] = failover
    benchmark.extra_info["bare_seconds"] = bare
