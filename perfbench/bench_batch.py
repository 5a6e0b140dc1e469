"""The ``batch_x2`` workload: back-to-back ``repro batch --workers 2`` runs.

Each operation is one ``python -m repro batch`` subprocess over one of
the run's request sets, an NDJSON request file and its merged view
catalog, so it pays what a batch user pays: interpreter start, catalog parse, pool fork, per-task catalog
pickling and cold worker contexts.  A request's latency is the time from
launching its invocation until its outcome line arrives on stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import OutputCheck, is_rewritable
from common import (
    RESULTS,
    Samples,
    end_to_end,
    layer_metrics,
    median,
    median_rows,
    outcome_row,
    request_size,
    rewriting_digest,
    run_result,
    timed_setups,
)
from workloads import generate, input_hash, rename_relations, shape_seed

#: Views per generated instance; eight instances, two per shape and
#: ``nondistinguished`` value, make one request set over a 1000-view
#: catalog.
VIEWS_EACH = 125
QUERIES_PER_CLASS = 2
#: Request sets per run.  A batch's time follows its slowest requests, so
#: one set's time depends on its draw (medians 0.44-0.51 s between seeds
#: against 0.43-0.45 s for one seed run again); invocations cycle over
#: the sets in whole passes, so a run averages over four draws.
REQUEST_SETS = 4
WORKERS = 2
#: A ``repro batch`` run that takes longer than this has hung; it is killed.
INVOCATION_TIMEOUT_S = 60.0


def generate_batch(seed: int):
    """The instances of each request set; each set's views form its catalog."""
    sets = []
    for number in range(REQUEST_SETS):
        instances = []
        for local in range(QUERIES_PER_CLASS):
            index = number * QUERIES_PER_CLASS + local
            for nondistinguished in (0, 1):
                for shape in ("star", "chain"):
                    instance = generate(
                        shape,
                        shape_seed(shape, seed, index),
                        VIEWS_EACH,
                        nondistinguished,
                        is_rewritable,
                        prefix=f"{shape[0]}{nondistinguished}{index}_",
                    )
                    if shape == "chain":
                        # Each shape gets its own base relations.
                        instance = rename_relations(instance, "c")
                    instances.append(instance)
        sets.append(instances)
    return sets


class RequestSet:
    """One request file and its view file, and the catalog parsed here.

    The parse is the one each ``repro batch`` invocation makes; its
    result serves the checks after timing.
    """

    def __init__(self, instances, directory: Path, number: int) -> None:
        from repro import ViewCatalog

        self.instances = instances
        directory.mkdir(parents=True, exist_ok=True)
        self.views_path = directory / f"views-{number}.dl"
        self.requests_path = directory / f"requests-{number}.ndjson"
        view_texts = [view for i in instances for view in i.views]
        self.views_path.write_text("\n".join(view_texts) + "\n")
        self.requests_path.write_text(
            "".join(
                json.dumps({"id": i.label, "query": i.query}) + "\n"
                for i in instances
            )
        )
        self.catalog = ViewCatalog(view_texts)

    def command(self, profile: bool) -> list[str]:
        command = [
            sys.executable, "-m", "repro", "batch", str(self.requests_path),
            "--views", str(self.views_path), "--workers", str(WORKERS),
            "--chain", "corecover", "--format", "json",
        ]
        return command + (["--profile"] if profile else [])


class Invocation:
    """One finished ``repro batch`` run: outcome lines with arrival times."""

    def __init__(self, command: list[str]) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        self.outcomes: list[tuple[float, dict]] = []
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            for line in process.stdout:
                arrived = time.perf_counter() - started
                self.outcomes.append((arrived, json.loads(line)))
            self.stderr = process.stderr.read()
            self.returncode = process.wait()
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()
        self.wall = time.perf_counter() - started

    def context_pool(self) -> dict:
        for line in self.stderr.splitlines():
            if line.startswith('{"context_pool"'):
                return json.loads(line)["context_pool"]
        return {}


def _measure(sets, seconds, check, profile, samples, invocations, invoke=Invocation):
    """Whole passes over the request sets, so every set weighs the same."""
    started = time.perf_counter()
    while True:
        for request_set in sets:
            invocation = invoke(request_set.command(profile))
            invocations.append(invocation)
            _check_outcomes(request_set, invocation, check, samples)
        if time.perf_counter() - started >= seconds:
            break
    samples.window_seconds = time.perf_counter() - started


def _check_outcomes(request_set, invocation, check, samples) -> None:
    by_id = {outcome.get("id"): (t, outcome) for t, outcome in invocation.outcomes}
    for instance in request_set.instances:
        samples.attempted += 1
        arrived, outcome = by_id.get(instance.label, (None, None))
        if (
            invocation.returncode != 0
            or outcome is None
            or outcome.get("status") != "ok"
            or not check.check(
                instance.label,
                rewriting_digest(outcome["rewritings"]),
                outcome["rewritings"],
            )
        ):
            samples.failed += 1
            continue
        samples.record(instance.shape, instance.nondistinguished, arrived)
        samples.completed_plans += 1


def _layer_values(invocations, sets) -> dict:
    shapes = {i.label: i.shape for request_set in sets for i in request_set.instances}
    rows = []
    busy_ms, wall_ms = 0.0, 0.0
    pools = []
    for invocation in invocations:
        wall_ms += invocation.wall * 1e3
        pools.append(invocation.context_pool())
        for _arrived, outcome in invocation.outcomes:
            busy_ms += outcome.get("elapsed_ms", 0.0)
            rows.append(outcome_row(outcome, shapes[outcome.get("id")]))
    values = {
        name: median_rows(rows, name) for name in rows[0] if name != "shape"
    }
    lookups = [sum(pool.values()) for pool in pools]
    values["parallel.pool_hit_rate"] = median(
        pool.get("hits", 0) / total for pool, total in zip(pools, lookups) if total
    )
    values["parallel.pool_delta_hits"] = median(p.get("delta_hits", 0) for p in pools)
    values["parallel.pool_misses"] = median(p.get("misses", 0) for p in pools)
    values["parallel.worker_busy_share"] = busy_ms / (WORKERS * wall_ms)
    kib, unpickle_ms = request_size(
        (i.query, request_set.catalog)
        for request_set in sets
        for i in request_set.instances
    )
    values["parallel.request_kib"] = kib
    values["parallel.unpickle_ms"] = unpickle_ms
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, tracer_factory):
    instance_sets = generate_batch(seed)
    directory = RESULTS / f"batch-seed{seed}"
    sets, setup_seconds = timed_setups(
        lambda: [
            RequestSet(instances, directory, number)
            for number, instances in enumerate(instance_sets)
        ]
    )
    instances = [i for request_set in sets for i in request_set.instances]
    sha = input_hash(instances)
    check = OutputCheck(workload, seed, sha)
    samples = Samples()
    tracer = None
    if not trace:
        _measure(sets, seconds, check, False, samples, [])
        metrics = end_to_end(samples, setup_seconds)
    else:
        # An untraced window, then a --profile one; workers record no
        # spans, so their numbers come from the profile payloads, the
        # trace file holds one span per profiled invocation, and the
        # overhead prices --profile.
        plain, profiled = [], []
        _measure(sets, seconds, check, False, samples, plain)
        tracer = tracer_factory()
        invoke = tracer.wrap("batch.invocation", Invocation)
        _measure(sets, seconds, check, True, samples, profiled, invoke)
        values = _layer_values(profiled, sets)
        values["trace.overhead"] = median(i.wall for i in profiled) / median(
            i.wall for i in plain
        )
        metrics = layer_metrics(values)
    catalogs = {i.label: s.catalog for s in sets for i in s.instances}
    check.certify(instances, lambda instance: catalogs[instance.label], seed)
    return run_result(samples, metrics, check, sha), tracer
