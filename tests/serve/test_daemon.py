"""End-to-end tests for the planning daemon over its real socket.

The acceptance scenario from the issue lives here: SIGTERM-style drain
under a 50-request load must settle every request within the drain
deadline, exit 0, never drop a request silently, and leave the plan
cache intact for a warm follow-up run.
"""

import json
import os
import socket
import time

import pytest

from repro.errors import (
    OverloadError,
    ParseError,
    ShuttingDownError,
    UnknownViewError,
)
from repro.parallel import SupervisorPolicy
from repro.serve import AdmissionPolicy, ServeClient, ServeConfig
from repro.serve.testing import running_daemon
from repro.service import ServicePolicy
from repro.parallel.worker import WorkerConfig
from repro.testing.faults import ExitFault, StallFault, inject

from .conftest import QUERY


def _wait_until(predicate, timeout=30.0):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _config(**overrides):
    overrides.setdefault(
        "worker",
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)), pool_size=2),
    )
    overrides.setdefault("supervisor", SupervisorPolicy(workers=2))
    return ServeConfig(**overrides)


def test_plan_roundtrip_and_health(catalog):
    with running_daemon(_config(), catalog=catalog) as handle:
        with handle.client() as client:
            health = client.healthz()
            assert health["status"] == "healthy"
            assert health["workers"] == 2
            response = client.plan(QUERY, id="r1")
            assert response["id"] == "r1"
            assert response["status"] == "ok"
            assert response["backend_used"] == "corecover"
            assert response["rewritings"]
            stats = client.stats()
            assert stats["admission"]["admitted"] == 1
            assert stats["requests"]["errors"] == 0
    assert handle.join() == 0


def test_bad_requests_answer_per_request_and_daemon_survives(catalog):
    with running_daemon(_config(), catalog=catalog) as handle:
        with handle.client() as client:
            bad = client.plan("q(X :- broken", id="bad")
            assert bad["status"] == "error"
            assert bad["error"]["error"] == "ParseError"
            assert bad["error"]["exit_code"] == 65
            with pytest.raises(ParseError):
                ServeClient.raise_for_response(bad)

            unknown_type = client.request({"type": "telnet", "id": "t"})
            assert unknown_type["status"] == "error"

            missing_catalog = client.plan(QUERY, id="m", catalog="ghost")
            assert missing_catalog["error"]["error"] == "UnknownViewError"
            with pytest.raises(UnknownViewError):
                ServeClient.raise_for_response(missing_catalog)

            # Garbage on the wire gets an error frame, not a hangup.
            client.send({"query": QUERY})  # warm the line
            client.recv()
            client._file.write(b"{not json\n")
            client._file.flush()
            junk = client.recv()
            assert junk["status"] == "error"
            assert junk["error"]["error"] == "ParseError"

            # After all that abuse the daemon still serves.
            good = client.plan(QUERY, id="ok")
            assert good["status"] == "ok"
    assert handle.join() == 0


def test_named_catalogs_register_update_and_serve(catalog):
    with running_daemon(_config(), catalog=catalog) as handle:
        with handle.client() as client:
            ack = client.register_catalog(
                "tenant-a", ["w1(X, Z) :- car(X, Y), loc(Y, Z)"]
            )
            assert ack["status"] == "ok"
            assert ack["views"] == 1
            served = client.plan(QUERY, id="a1", catalog="tenant-a")
            assert served["status"] == "ok"

            update = client.update_catalog(
                "tenant-a", add=["w2(X, Y) :- car(X, Y)"]
            )
            assert update["status"] == "ok"
            assert update["deltas"]
            stats = client.stats()
            assert stats["catalogs"]["tenant-a"]["views"] == 2
    assert handle.join() == 0


def test_rate_limited_tenant_sheds_with_retry_after(catalog):
    config = _config(
        admission=AdmissionPolicy(tenant_rates={"noisy": 0.0})
    )
    with running_daemon(config, catalog=catalog) as handle:
        with handle.client() as client:
            ok = client.plan(QUERY, id="calm-1", tenant="calm")
            assert ok["status"] == "ok"
            shed = client.plan(QUERY, id="noisy-1", tenant="noisy")
            assert shed["status"] == "error"
            assert shed["error"]["error"] == "OverloadError"
            assert shed["error"]["exit_code"] == 78
            assert shed["error"]["retry_after"] > 0
            with pytest.raises(OverloadError):
                ServeClient.raise_for_response(shed)
            stats = client.stats()
            assert stats["admission"]["shed"]["rate_limited"] == 1
    assert handle.join() == 0


def test_drain_message_stops_admission_and_exits_clean(catalog):
    config = _config(
        supervisor=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    )
    # Keep one request in flight for ~1s so the drain has work to
    # settle — which also guarantees the daemon is still alive to
    # answer the late arrival below.
    with inject(StallFault("worker_dispatch", seconds=1.0)):
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client(timeout=60.0) as client:
                client.send({"query": QUERY, "id": "r1"})
                assert _wait_until(
                    lambda: handle.daemon.pool.busy_workers() == 1
                )
                ack = client.drain()
                assert ack["status"] == "draining"
                late = client.plan(QUERY, id="late")
                assert late["status"] == "error"
                assert late["error"]["error"] == "ShuttingDownError"
                assert late["error"]["exit_code"] == 79
                with pytest.raises(ShuttingDownError):
                    ServeClient.raise_for_response(late)
                settled = client.recv()
                assert settled["id"] == "r1"
                assert settled["status"] == "ok"
        assert handle.join() == 0
    report = handle.daemon.drain_report
    assert report is not None and report["drained"] is True


def test_deadline_spent_queued_is_answered_not_planned(catalog):
    # One dispatcher and a stalled first request force the second to
    # sit queued past its whole deadline; it must come back as a
    # structured BudgetExceededError without ever reaching a worker.
    config = _config(
        dispatchers=1,
        supervisor=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    )
    stall = StallFault("worker_dispatch", seconds=1.0)
    with inject(stall):
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client() as slow, handle.client() as fast:
                slow.send({"query": QUERY, "id": "slow"})
                assert _wait_until(
                    lambda: handle.daemon.pool.busy_workers() == 1
                )
                fast.send({"query": QUERY, "id": "fast", "timeout": 0.1})
                fast_response = fast.recv()
                slow_response = slow.recv()
            assert slow_response["status"] == "ok"
            assert fast_response["status"] == "error"
            assert fast_response["error"]["error"] == "BudgetExceededError"
            assert "queued" in fast_response["error"]["message"]
        assert handle.join() == 0


def test_worker_kill_mid_request_degrades_only_that_request(catalog):
    config = _config(
        supervisor=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    )
    # The third dispatched request kills its worker mid-plan.
    with inject(ExitFault("worker_dispatch", after=3)):
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client() as client:
                responses = [
                    client.plan(QUERY, id=f"r{i}", timeout=20.0)
                    for i in range(5)
                ]
            failed = [r for r in responses if r["status"] == "failed"]
            assert len(failed) == 1
            assert failed[0]["id"] == "r2"
            assert failed[0]["error"]["error"] == "WorkerCrashError"
            assert failed[0]["error"]["exit_code"] == 77
            ok = [r for r in responses if r["status"] == "ok"]
            assert len(ok) == 4
            with handle.client() as client:
                health = client.healthz()
                assert health["status"] == "degraded"
        assert handle.join() == 0


def test_sigterm_drain_under_load_settles_every_request(catalog, tmp_path):
    """The issue's acceptance scenario, in-process.

    50 pipelined requests; a drain lands mid-load.  Every request must
    get a terminal response (ok, or a structured shed/abort error),
    the daemon must exit 0 within the drain deadline, and the plan
    cache must be intact for a warm follow-up run.
    """
    cache_dir = str(tmp_path / "cache")
    config = _config(
        worker=WorkerConfig(
            policy=ServicePolicy(chain=("corecover",)),
            pool_size=2,
            cache_dir=cache_dir,
        ),
        supervisor=SupervisorPolicy(workers=2),
        drain_deadline=30.0,
    )
    total = 50
    # Each dispatch stalls 50ms so a real backlog exists when the
    # drain lands — the drain must settle it, not abort it.
    with inject(StallFault("worker_dispatch", seconds=0.05, times=None)):
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client(timeout=120.0) as client:
                for i in range(total):
                    client.send({"query": QUERY, "id": f"r{i}"})
                # All frames admitted; a backlog is still outstanding.
                assert _wait_until(
                    lambda: handle.daemon.requests_total >= total
                )
                assert (
                    handle.daemon._queue.qsize()
                    + handle.daemon.pool.outstanding()
                    > 0
                ), "the drain must land while work is still in flight"
                # SIGTERM equivalent: the signal handler calls exactly
                # this, from the loop's callback context.
                handle.begin_drain("signal:SIGTERM")
                responses = [client.recv() for _ in range(total)]
        exit_code = handle.join(timeout=120.0)

    assert len(responses) == total, "no request may be silently dropped"
    by_id = {r["id"] for r in responses}
    assert by_id == {f"r{i}" for i in range(total)}
    for response in responses:
        assert response["status"] in ("ok", "degraded"), (
            "an admitted request must be settled by the drain, "
            f"got {response!r}"
        )
    assert exit_code == 0, "a graceful drain exits 0"
    report = handle.daemon.drain_report
    assert report is not None
    assert report["drained"] is True
    assert report["aborted"] == 0

    # The flushed cache must serve a warm follow-up run.
    flushed = handle.daemon.cache_entries_flushed
    assert flushed is not None and flushed >= 1
    with running_daemon(config, catalog=catalog) as handle2:
        with handle2.client() as client:
            warm = client.plan(QUERY, id="warm")
            assert warm["status"] == "ok"
            assert warm["cache"] == "hit"
            assert warm["attempts"] == 0
    assert handle2.join() == 0


def test_drain_deadline_aborts_stuck_work_instead_of_hanging(catalog):
    """A blown drain deadline must abort, answer, and exit 79 — not hang.

    One worker is stuck far past the deadline (still heartbeating, no
    request deadline of its own) and a second request sits queued
    behind it.  The drain must kill the stuck worker, answer *both*
    requests with a structured ShuttingDownError, and exit 79 shortly
    after the deadline — not plan the backlog late or wait forever.
    """
    config = _config(
        dispatchers=1,
        supervisor=SupervisorPolicy(workers=1, heartbeat_grace=120.0),
        drain_deadline=1.0,
    )
    with inject(StallFault("worker_dispatch", seconds=120.0)):
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client(timeout=60.0) as client:
                client.send({"query": QUERY, "id": "stuck"})
                assert _wait_until(
                    lambda: handle.daemon.pool.busy_workers() == 1
                )
                client.send({"query": QUERY, "id": "queued"})
                assert _wait_until(
                    lambda: handle.daemon.requests_total >= 2
                )
                started = time.monotonic()
                handle.begin_drain("signal:SIGTERM")
                responses = {}
                for _ in range(2):
                    response = client.recv()
                    responses[response["id"]] = response
        exit_code = handle.join(timeout=60.0)
        elapsed = time.monotonic() - started

    assert set(responses) == {"stuck", "queued"}
    # The killed in-flight request settles as a structured "failed"
    # outcome; the never-submitted backlog request as an error frame.
    # Both carry ShuttingDownError — neither is planned late or dropped.
    for response in responses.values():
        assert response["status"] in ("failed", "error")
        assert response["error"]["error"] == "ShuttingDownError"
        assert response["error"]["exit_code"] == 79
    assert exit_code == 79, "a deadline-violating drain is not clean"
    assert elapsed < 30.0, "the drain must not wait out the 120s stall"
    report = handle.daemon.drain_report
    assert report is not None and report["drained"] is False


def test_unix_socket_path_is_reusable_across_runs(catalog, tmp_path):
    path = str(tmp_path / "repro.sock")
    # A dead daemon (killed, or a pre-fix clean exit) leaves the bound
    # socket file behind; startup must treat it as stale and rebind.
    stale = socket.socket(socket.AF_UNIX)
    stale.bind(path)
    stale.close()
    assert os.path.exists(path)
    config = _config(unix_socket=path)
    for run in range(2):
        with running_daemon(config, catalog=catalog) as handle:
            assert handle.address == ("unix", path)
            with handle.client() as client:
                served = client.plan(QUERY, id=f"run-{run}")
                assert served["status"] == "ok"
        assert handle.join() == 0
        assert not os.path.exists(path), "clean drain removes the socket"


def test_serve_send_counts_control_frames_separately(
    catalog, tmp_path, capsys
):
    """A healthz answer on the degraded rung must not count as a plan.

    The daemon's ladder status strings overlap the plan-outcome vocabulary
    ("degraded"), so the CLI summary must classify by request type.
    """
    from repro.cli import main

    with running_daemon(_config(), catalog=catalog) as handle:
        handle.daemon.degraded_served = 1  # pin the ladder on "degraded"
        requests = tmp_path / "requests.ndjson"
        requests.write_text(
            json.dumps({"id": "h", "type": "healthz"})
            + "\n"
            + json.dumps({"id": "p", "query": QUERY})
            + "\n"
        )
        _, host, port = handle.address
        code = main(
            [
                "serve", "send", str(requests),
                "--host", host, "--port", str(port),
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["status"] for r in lines] == ["degraded", "ok"]
        assert (
            "serve send: 1 ok, 0 degraded, 0 failed, 0 error, 1 control"
            in captured.err
        )
    assert handle.join() == 0


def test_stats_are_json_serializable(catalog):
    with running_daemon(_config(), catalog=catalog) as handle:
        with handle.client() as client:
            client.plan(QUERY, id="r1")
            stats = client.stats()
        json.dumps(stats)
        assert stats["queue_capacity"] == 64
        assert stats["pool"]["completed"] >= 1
    assert handle.join() == 0


def test_stats_aggregate_profile_search_counters():
    """Profiled outcome lines fold into ``stats()`` phase + search totals."""
    from repro.serve.daemon import PlanningDaemon

    daemon = PlanningDaemon(_config())
    for payload in (
        {"profile": {"phase_seconds": {"parse": 0.5, "set_cover": 0.25},
                     "search": {"hom_searches": 3, "hom_nodes": 40}}},
        {"profile": {"phase_seconds": {"parse": 0.25},
                     "search": {"hom_searches": 1, "hom_nodes": 5}}},
        {"profile": None},  # unprofiled outcomes are ignored
    ):
        daemon._absorb_profile(payload)
    profile = daemon.stats()["profile"]
    assert profile["requests"] == 2
    assert profile["phase_seconds"]["parse"] == 0.75
    assert profile["search"] == {"hom_searches": 4, "hom_nodes": 45}
