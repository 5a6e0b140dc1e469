"""The ``serve_mixed`` workload: a planning daemon under a closed loop.

The daemon is ``repro serve run --workers 2 --chain corecover
--audit-fail-on error --state-dir DIR``.  Untraced runs start it as its
own process, as users do; the traced run hosts the same configuration in
this process through ``repro.serve.testing.running_daemon``, so that it
can wrap the work the event loop does.  Two named 1000-view catalogs,
one merged from star instances and one from chain instances, are
registered during set-up.

Load is a closed loop over two connections, one per catalog's tenant:
each sends its next frame only after the previous answer arrives, as a
mediator that waits for its plan does.  Most frames are plan requests;
every ``UPDATE_EVERY``-th frame of a connection is a one-view update of
its catalog, alternately a ``replace`` of a view by a variable-renamed
copy and an ``add`` of a view over a relation no query uses.  Both leave
every plan's rewritings unchanged while going through the catalog
delta, the incremental audit and the journal append.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import re
import select
import shutil
import subprocess
import sys
import threading
import time

from checks import OutputCheck, is_rewritable
from common import (
    HARD_LIMIT_S,
    RESULTS,
    Samples,
    end_to_end,
    layer_metrics,
    median_rows,
    outcome_row,
    request_size,
    rewriting_digest,
    run_result,
    time_limit_reached,
    timed_setups,
    trace_overhead,
)
from workloads import generate, input_hash, shape_seed

#: Each catalog merges sixteen generated instances of 63 views, eight per
#: ``nondistinguished`` value, into 1008 views, so each tenant plans
#: sixteen queries.  With eight instances of 125 views, star medians
#: moved by 0.18 between seeds while set-up times held steady: too few
#: queries to average over.
VIEWS_EACH = 63
QUERIES_PER_CLASS = 8
WORKERS = 2
#: One frame in this many, per connection, is a catalog update.
UPDATE_EVERY = 30
#: A frame that takes longer than this means the daemon is stuck.
CLIENT_TIMEOUT_S = 30.0
#: Longest a daemon may take to start listening or to drain.
DAEMON_TIMEOUT_S = 60.0
_VARIABLE = re.compile(r"\b([A-Z]\w*)\b")


class DaemonProcess:
    """``repro serve run`` as a child process; ``close`` drains it."""

    def __init__(self, state_dir, log_path) -> None:
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "run", "--port", "0",
                "--workers", str(WORKERS), "--chain", "corecover",
                "--audit-fail-on", "error", "--state-dir", str(state_dir),
            ],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.port = None
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while self.port is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0, remaining))
            line = self.process.stdout.readline() if ready else ""
            if not line:
                self.close()
                raise RuntimeError(f"serve daemon did not start; see {log_path}")
            event = json.loads(line)
            if event.get("event") == "ready":
                self.port = event["port"]

    def client(self, *, timeout: float):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout=timeout)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()  # SIGTERM: a graceful drain
        try:
            self.process.communicate(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()


class DaemonInProcess:
    """The same daemon on a thread of this process, for the traced run."""

    def __init__(self, state_dir) -> None:
        from repro.parallel import SupervisorPolicy
        from repro.parallel.worker import WorkerConfig
        from repro.serve import ServeConfig
        from repro.serve.testing import running_daemon
        from repro.service import ServicePolicy

        config = ServeConfig(
            port=0,
            supervisor=SupervisorPolicy(workers=WORKERS),
            # Workers record no spans; their profile payloads stand in.
            worker=WorkerConfig(
                policy=ServicePolicy(chain=("corecover",)), profile=True
            ),
            audit_fail_on="error",
            state_dir=str(state_dir),
        )
        self._stack = contextlib.ExitStack()
        self.handle = self._stack.enter_context(running_daemon(config))

    def client(self, *, timeout: float):
        return self.handle.client(timeout=timeout)

    def close(self) -> None:
        self._stack.close()


def generate_serve(seed: int):
    """The tenants' instances and each catalog's merged view texts."""
    instances, catalog_texts = [], {}
    for shape in ("star", "chain"):
        texts = []
        for index in range(QUERIES_PER_CLASS):
            for nondistinguished in (0, 1):
                instance = generate(
                    shape,
                    shape_seed(shape, seed, index),
                    VIEWS_EACH,
                    nondistinguished,
                    is_rewritable,
                    prefix=f"{shape[0]}{nondistinguished}{index}_",
                )
                instances.append(instance)
                texts.extend(instance.views)
        catalog_texts[shape] = texts
    return instances, catalog_texts


class ServeSetup:
    """A running daemon with both generated catalogs registered."""

    def __init__(self, generated, seed: int, in_process: bool) -> None:
        self.instances, self.catalog_texts = generated
        self.state_dir = RESULTS / f"serve-state-seed{seed}"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        self.daemon = None
        try:
            if in_process:
                self.daemon = DaemonInProcess(self.state_dir)
            else:
                log = RESULTS / f"serve-daemon-seed{seed}.log"
                self.daemon = DaemonProcess(self.state_dir, log)
            with self.daemon.client(timeout=CLIENT_TIMEOUT_S) as client:
                for shape, texts in self.catalog_texts.items():
                    ack = client.register_catalog(shape, texts)
                    if ack.get("status") != "ok":
                        raise RuntimeError(f"catalog {shape} rejected: {ack}")
        except BaseException:
            self.close()
            raise

    @functools.cached_property
    def catalogs(self) -> dict:
        """Both catalogs, parsed here for the checks after timing."""
        from repro import ViewCatalog

        return {s: ViewCatalog(t) for s, t in self.catalog_texts.items()}

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        shutil.rmtree(self.state_dir, ignore_errors=True)


class Tenant:
    """The fixed frame sequence of the connection that owns one catalog."""

    def __init__(self, setup: ServeSetup, shape: str) -> None:
        self.shape = shape
        self._plans = itertools.cycle(i for i in setup.instances if i.shape == shape)
        self._texts = setup.catalog_texts[shape]
        self._count = 0
        self._updates = 0

    def next(self):
        self._count += 1
        if self._count % UPDATE_EVERY:
            instance = next(self._plans)
            frame = {
                "id": f"{self.shape}-p{self._count}",
                "query": instance.query,
                "catalog": self.shape,
            }
            return "plan", instance, frame
        self._updates += 1
        return "update", None, self._update_frame(self._updates)

    def _update_frame(self, number: int) -> dict:
        frame = {
            "id": f"{self.shape}-u{self._count}",
            "type": "catalog",
            "action": "update",
            "name": self.shape,
        }
        if number % 2:
            original = self._texts[(number * 37) % len(self._texts)]
            name, body = original.split("(", 1)
            renamed = _VARIABLE.sub(lambda m: f"{m.group(1)}r{number}", body)
            frame["replace"] = [f"{name}({renamed}"]
        else:
            frame["add"] = [f"{self.shape[0]}x{number}(A, B) :- u{number}(A, B)"]
        return frame


class Recorder:
    """What the connections observed, under one lock."""

    def __init__(self, check: OutputCheck) -> None:
        self.lock = threading.Lock()
        self.check = check
        self.samples = Samples()
        self.plans: list[tuple[str, str, float, dict]] = []
        self.updates: list[dict] = []
        self.shed = 0

    def plan(self, instance, seconds: float, response: dict) -> None:
        with self.lock:
            self.samples.attempted += 1
            error = response.get("error") or {}
            if isinstance(error, dict) and error.get("error") == "OverloadError":
                self.shed += 1
            ok = response.get("status") == "ok" and self.check.check(
                instance.label,
                rewriting_digest(response.get("rewritings", ())),
                response.get("rewritings"),
            )
            if not ok:
                self.samples.failed += 1
                return
            self.samples.record(instance.shape, instance.nondistinguished, seconds)
            self.samples.completed_plans += 1
            self.plans.append(
                (response.get("id"), instance.shape, seconds * 1e3, response)
            )

    def update(self, frame: dict, seconds: float, response: dict) -> None:
        with self.lock:
            self.samples.attempted += 1
            if response.get("status") != "ok":
                self.samples.failed += 1
                return
            self.updates.append(
                {"rid": frame["id"], "shape": frame["name"], "ms": seconds * 1e3}
            )


def _connection(setup, tenant, recorder, done, errors):
    try:
        with setup.daemon.client(timeout=CLIENT_TIMEOUT_S) as client:
            while not done():
                kind, instance, frame = tenant.next()
                started = time.perf_counter()
                response = client.request(frame)
                seconds = time.perf_counter() - started
                if kind == "plan":
                    recorder.plan(instance, seconds, response)
                else:
                    recorder.update(frame, seconds, response)
    except Exception as exc:  # a broken connection fails the run
        errors.append(repr(exc))


def _measure(setup, tenants, recorder, seconds, need_samples) -> None:
    errors: list[str] = []
    started = time.perf_counter()

    def done() -> bool:
        return time_limit_reached(started, seconds, recorder.samples, need_samples)

    threads = [
        threading.Thread(
            target=_connection, args=(setup, tenant, recorder, done, errors)
        )
        for tenant in tenants
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=HARD_LIMIT_S + CLIENT_TIMEOUT_S)
        if thread.is_alive():
            errors.append("client connection did not finish")
    recorder.samples.window_seconds = time.perf_counter() - started
    recorder.samples.failed += len(errors)
    recorder.samples.attempted += len(errors)


def _warm_up(setup) -> None:
    """Each query twice, untimed, so the workers start with warm contexts."""
    with setup.daemon.client(timeout=CLIENT_TIMEOUT_S) as client:
        for instance in setup.instances * 2:
            client.request({"query": instance.query, "catalog": instance.shape})


def _pool_counters(setup) -> dict:
    with setup.daemon.client(timeout=CLIENT_TIMEOUT_S) as client:
        return client.stats()["pool"]["pool"]


def _layer_values(recorder, tracer, setup, pool_before, pool_after) -> dict:
    parse = tracer.per_request("datalog.parse")
    relevant = tracer.per_request("views.relevant_views")
    rows = []
    busy_ms = 0.0
    for rid, shape, rtt_ms, response in recorder.plans:
        busy_ms += response.get("elapsed_ms", 0.0)
        row = outcome_row(response, shape)
        # The daemon parses on its event loop, where the span sees it.
        row["datalog.parse_ms"] = parse.get(rid, 0.0)
        if rid in relevant:
            row["views.relevant_views_ms"] = relevant[rid]
        row["serve.overhead_ms"] = rtt_ms - row["service.execute_ms"]
        rows.append(row)
    names = {name for row in rows for name in row} - {"shape"}
    values = {name: median_rows(rows, name) for name in names}
    updates = recorder.updates
    for metric, span, inclusive in (
        ("serve.loop_blocked_ms", "serve.catalog_update", True),
        ("serve.journal_append_ms", "serve.journal_append", False),
        ("analysis.audit_ms", "analysis.audit", False),
    ):
        per_update = tracer.per_request(span, inclusive=inclusive)
        for update in updates:
            update[metric] = per_update.get(update["rid"], 0.0)
        values[metric] = median_rows(updates, metric)
    values["serve.update_ms_p50"] = median_rows(updates, "ms")
    values["serve.shed"] = recorder.shed
    delta = {k: pool_after.get(k, 0) - pool_before.get(k, 0) for k in pool_after}
    lookups = sum(delta.values())
    values["parallel.pool_hit_rate"] = delta.get("hits", 0) / lookups if lookups else 0.0
    values["parallel.pool_delta_hits"] = delta.get("delta_hits", 0)
    values["parallel.pool_misses"] = delta.get("misses", 0)
    values["parallel.worker_busy_share"] = busy_ms / (
        WORKERS * recorder.samples.window_seconds * 1e3
    )
    kib, unpickle_ms = request_size(
        (i.query, setup.catalogs[i.shape]) for i in setup.instances
    )
    values["parallel.request_kib"] = kib
    values["parallel.unpickle_ms"] = unpickle_ms
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, tracer_factory):
    generated = generate_serve(seed)
    setup, setup_seconds = timed_setups(
        lambda: ServeSetup(generated, seed, in_process=trace)
    )
    sha = input_hash(setup.instances)
    try:
        check = OutputCheck(workload, seed, sha)
        _warm_up(setup)
        tenants = [Tenant(setup, shape) for shape in ("star", "chain")]
        recorder = Recorder(check)
        tracer = None
        if not trace:
            _measure(setup, tenants, recorder, seconds, need_samples=True)
            samples = recorder.samples
        else:
            # An untraced window, then a traced one, on the in-process daemon.
            plain = Recorder(check)
            _measure(setup, tenants, plain, seconds, need_samples=False)
            from repro.serve import daemon as daemon_module

            tracer = tracer_factory()
            pool_before = _pool_counters(setup)
            tracer.enable(request_tag=(daemon_module, "decode_frame"))
            try:
                _measure(setup, tenants, recorder, seconds, need_samples=False)
            finally:
                tracer.disable()
            pool_after = _pool_counters(setup)
            samples = recorder.samples
            samples.attempted += plain.samples.attempted
            samples.failed += plain.samples.failed
            values = _layer_values(recorder, tracer, setup, pool_before, pool_after)
            values["trace.overhead"] = trace_overhead(samples, plain.samples)
            values["serve.shed"] += plain.shed
        check.certify(
            setup.instances, lambda instance: setup.catalogs[instance.shape], seed
        )
    finally:
        setup.close()
    # After the daemon has exited, so its peak memory is counted.
    metrics = layer_metrics(values) if trace else end_to_end(samples, setup_seconds)
    updates = recorder.updates
    return run_result(
        samples, metrics, check, sha,
        update_ms_p50=median_rows(updates, "ms"),
        updates=len(updates),
        shed=recorder.shed,
    ), tracer
