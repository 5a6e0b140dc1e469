"""Serial/parallel determinism at the CLI surface.

The same NDJSON batch through ``--workers 1`` and ``--workers 4`` must
produce byte-identical text output (and JSON output identical modulo
the wall-clock ``elapsed_ms`` field), the same stderr summary, and the
same exit code — including batches that mix successes with
taxonomy-error lines.
"""

import json

import pytest

from repro.cli import main

VIEWS_TEXT = """
v1(A, B) :- a(A, B), a(B, B)
v2(C, D) :- a(C, E), b(C, D)
v3(A) :- a(A, A)
"""

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"
#: A comparison atom: UnsupportedQueryError on corecover, so this line
#: comes back ``failed`` (and the batch exits 74) without aborting.
UNSUPPORTED = "q(X) :- a(X, Y), X < Y"


@pytest.fixture()
def workload_files(tmp_path):
    views = tmp_path / "views.dl"
    views.write_text(VIEWS_TEXT)
    payloads = [
        {"id": "r1", "query": QUERY},
        {"id": "r2", "query": QUERY, "views": ["v1", "v2"]},
        {"id": "bad", "query": UNSUPPORTED},
        {"id": "r3", "query": QUERY},
        {"id": "r4", "query": QUERY, "options": {"group_views": False}},
    ]
    requests = tmp_path / "requests.ndjson"
    requests.write_text(
        "\n".join(json.dumps(p) for p in payloads) + "\n"
    )
    return str(requests), str(views)


def _run_batch(workload_files, capsys, *, workers, fmt):
    requests, views = workload_files
    code = main(
        [
            "batch", requests, "--views", views,
            "--chain", "corecover",
            "--workers", str(workers),
            "--format", fmt,
        ]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_output_is_byte_identical_across_worker_counts(
    workload_files, capsys
):
    serial = _run_batch(workload_files, capsys, workers=1, fmt="text")
    parallel = _run_batch(workload_files, capsys, workers=4, fmt="text")
    assert serial == parallel
    # The mixed batch exits with the taxonomy code of its last failure.
    assert serial[0] == 74


def test_json_output_matches_modulo_elapsed(workload_files, capsys):
    _, serial_out, serial_err = _run_batch(
        workload_files, capsys, workers=1, fmt="json"
    )
    _, parallel_out, parallel_err = _run_batch(
        workload_files, capsys, workers=4, fmt="json"
    )

    def normalize(out):
        lines = []
        for line in out.splitlines():
            payload = json.loads(line)
            payload.pop("elapsed_ms")
            lines.append(payload)
        return lines

    serial_lines = normalize(serial_out)
    assert serial_lines == normalize(parallel_out)
    assert serial_err == parallel_err
    assert [p["id"] for p in serial_lines] == [
        "r1", "r2", "bad", "r3", "r4"
    ]
    assert [p["status"] for p in serial_lines] == [
        "ok", "ok", "failed", "ok", "ok"
    ]


def test_engine_outcomes_match_serial_executor(workload_files):
    """Pool-level equivalence: the same requests through the plain
    resilient executor and a 2-worker ``SupervisedWorkerPool.map`` agree
    on every outcome field except wall-clock time."""
    from pathlib import Path

    from repro.parallel import (
        SupervisedWorkerPool,
        SupervisorPolicy,
        WorkerConfig,
    )
    from repro.service import (
        ResilientExecutor,
        ServicePolicy,
        parse_requests,
    )
    from repro.views import ViewCatalog
    from repro.datalog import parse_program

    requests_path, views_path = workload_files
    catalog = ViewCatalog(parse_program(Path(views_path).read_text()))
    lines = Path(requests_path).read_text().splitlines()
    policy = ServicePolicy(chain=("corecover",))

    executor = ResilientExecutor(policy)
    serial = [
        executor.execute(request)
        for request in parse_requests(lines, catalog)
    ]
    with SupervisedWorkerPool(
        WorkerConfig(policy=policy), policy=SupervisorPolicy(workers=2)
    ) as pool:
        parallel = list(pool.map(parse_requests(lines, catalog)))

    def normalize(outcome):
        payload = outcome.to_json()
        payload.pop("elapsed_ms")
        return payload

    assert [normalize(o) for o in serial] == [
        normalize(o) for o in parallel
    ]
    summary = pool.scoreboard.summary()
    assert summary["corecover"]["successes"] == 4
    assert summary["corecover"]["failures"] == 0


@pytest.mark.parametrize("workers", [0, -3])
def test_non_positive_workers_means_one_per_cpu(
    workload_files, capsys, monkeypatch, workers
):
    from repro.parallel import SupervisedWorkerPool

    started = []
    real_start = SupervisedWorkerPool.start

    def recording_start(self):
        started.append(self.policy.workers)
        return real_start(self)

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(SupervisedWorkerPool, "start", recording_start)
    serial = _run_batch(workload_files, capsys, workers=1, fmt="text")
    auto = _run_batch(workload_files, capsys, workers=workers, fmt="text")
    assert started == [2]
    assert auto == serial
