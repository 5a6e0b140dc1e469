"""Chaos tests for worker isolation under ``SupervisedWorkerPool.map``.

The contract under test: a worker that misbehaves — raises unexpectedly
or dies outright (SIGKILL) — fails **only the request it was serving**.
Every other request in the batch completes normally and outcomes still
arrive in input order.
"""

import pytest

from repro import ViewCatalog, parse_query
from repro.errors import ParseError, WorkerCrashError
from repro.parallel import (
    SupervisedWorkerPool,
    SupervisorPolicy,
    WorkerConfig,
    WorkerState,
    WorkerTask,
    crash_outcome,
)
from repro.planner.limits import ResourceBudget
from repro.service import PlanRequest, ServicePolicy
from repro.testing.faults import INJECTION_POINTS, ExitFault, RaiseFault

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"


@pytest.fixture()
def catalog():
    return ViewCatalog(
        [
            "v1(A, B) :- a(A, B), a(B, B)",
            "v2(C, D) :- a(C, E), b(C, D)",
        ]
    )


def _requests(catalog, count, *, deadline=None):
    budget = (
        None
        if deadline is None
        else ResourceBudget(deadline_seconds=deadline)
    )
    query = parse_query(QUERY)
    return [
        PlanRequest(query=query, views=catalog, id=f"r{i}", budget=budget)
        for i in range(count)
    ]


def _pool(**policy):
    return SupervisedWorkerPool(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",))),
        policy=SupervisorPolicy(**policy),
    )


def test_worker_dispatch_is_a_registered_injection_point():
    assert "worker_dispatch" in INJECTION_POINTS


def test_poisoned_task_fails_alone_in_process_pool(catalog):
    """A worker-side unexpected exception on task 1 (workers=2)
    degrades that request to a failed outcome; r0 and r2 are fine."""
    chaos = {1: (RaiseFault("worker_dispatch"),)}
    with _pool(workers=2) as pool:
        outcomes = list(pool.map(_requests(catalog, 3), chaos=chaos))
    assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
    assert outcomes[0].ok and outcomes[2].ok
    poisoned = outcomes[1]
    assert poisoned.status == "failed"
    assert isinstance(poisoned.error, WorkerCrashError)
    assert poisoned.failures[0].backend == "worker"
    assert "r1" in str(poisoned.error)


def test_killed_worker_fails_only_its_own_request(catalog):
    """The worker exits mid-dispatch: the supervisor sees it die, fails
    only the poisoned request, and respawns the worker."""
    chaos = {1: (ExitFault("worker_dispatch"),)}
    with _pool(workers=2, task_grace_seconds=1.0) as pool:
        outcomes = list(
            pool.map(_requests(catalog, 3, deadline=5.0), chaos=chaos)
        )
        assert pool.crashes == 1
    assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
    assert outcomes[0].ok and outcomes[2].ok
    killed = outcomes[1]
    assert killed.status == "failed"
    assert isinstance(killed.error, WorkerCrashError)
    assert killed.failures[0].backend == "worker"
    # "died" (pipe EOF) or "was killed" (reaped first): either way the
    # supervisor saw the death itself, long before any deadline.
    assert "mid-request" in killed.failures[0].message


def test_serial_path_reports_crash_identically(catalog):
    """A worker's serve loop run in-process wraps the same unexpected
    exception in the same WorkerCrashError outcome shape as the pool."""
    state = WorkerState(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
    )
    requests = _requests(catalog, 2)
    chaos = (RaiseFault("worker_dispatch"),)
    outcomes = [
        state.run(WorkerTask(0, requests[0], chaos)).outcome,
        state.run(WorkerTask(1, requests[1])).outcome,
    ]
    assert outcomes[0].status == "failed"
    assert isinstance(outcomes[0].error, WorkerCrashError)
    assert outcomes[1].ok


def test_map_reraises_a_worker_side_input_error_in_input_order(catalog):
    """An input error a worker hits ships back and re-raises in the
    parent at its own position: earlier outcomes are already yielded,
    and the error keeps its taxonomy exit code, as on the serial path."""
    chaos = {1: (RaiseFault("worker_dispatch", make_exception=ParseError),)}
    with _pool(workers=2) as pool:
        outcomes = pool.map(_requests(catalog, 3), chaos=chaos)
        assert next(outcomes).request_id == "r0"
        with pytest.raises(ParseError) as excinfo:
            next(outcomes)
    assert excinfo.value.exit_code == 65


def test_task_attached_chaos_does_not_leak_to_parent(catalog):
    """Chaos faults ride the task; the parent process's fault plan
    stays untouched (nothing active after the run)."""
    from repro.testing import faults

    chaos = {0: (RaiseFault("worker_dispatch"),)}
    with _pool(workers=2) as pool:
        list(pool.map(_requests(catalog, 2), chaos=chaos))
    assert faults._ACTIVE is None


def test_crash_outcome_shape(catalog):
    request = _requests(catalog, 1)[0]
    error = WorkerCrashError("worker gone", request_id="r0")
    outcome = crash_outcome(request, error)
    assert outcome.status == "failed"
    assert outcome.request_id == "r0"
    assert outcome.cache == "off"
    assert outcome.error is error
    payload = outcome.to_json()
    assert payload["status"] == "failed"
    assert payload["failures"][0]["backend"] == "worker"
