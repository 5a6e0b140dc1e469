"""The one worker-process pool: ``repro batch --workers N`` and ``serve``.

:class:`SupervisedWorkerPool` is a long-lived pool that *supervises*
its workers.  The :mod:`repro.serve` daemon keeps one for its whole
residency and feeds it through :meth:`SupervisedWorkerPool.submit`;
``repro batch`` starts one per run and walks a finite workload through
:meth:`SupervisedWorkerPool.map`, outcomes in input order.

* **Heartbeats** — each worker runs a daemon thread stamping a shared
  ``Value('d')`` with ``time.monotonic()`` (system-wide monotonic on
  Linux, so parent and child readings compare directly).  A worker whose
  heartbeat goes stale past ``heartbeat_grace`` — SIGSTOPped, wedged in
  native code, or silently gone — is killed and replaced even when no
  request is in flight to notice.  The same thread exits the worker
  when its parent is gone (reparented: ``os.getppid()`` changed), so a
  SIGKILLed parent leaves no orphans blocked on a pipe that a sibling
  still holds open.
* **Crash isolation** — one dispatcher thread per worker slot walks a
  shared ticket queue.  While a request is in flight the dispatcher
  polls the worker pipe in short slices, watching the task deadline,
  process liveness, and the heartbeat; death or a hang resolves *that
  request only* with a structured
  :class:`~repro.errors.WorkerCrashError` outcome and respawns the
  worker.  A worker that died idle (between tasks) never fails a
  request: dispatch retries once on the fresh replacement.
* **Scoreboard merge on restart** — workers report per-task breaker
  *deltas* (:attr:`WorkerResult.breaker_deltas`), so the parent
  :class:`BreakerScoreboard` accumulates exactly the work each
  incarnation actually did; a replacement worker starts from zeroed
  breakers and cannot double-count its predecessor's totals.
* **Recycling** — after ``recycle_after_requests`` served, or when the
  worker's resident set (``/proc/<pid>/statm``) crosses
  ``max_rss_bytes``, the worker is retired gracefully between requests
  and replaced — bounding leak accumulation over a long residency.
* **Drain-aware shutdown** — :meth:`SupervisedWorkerPool.shutdown`
  fires the ``serve_drain`` injection point at each phase transition,
  waits for in-flight work up to a drain deadline, and past the
  deadline resolves every leftover request with a structured
  :class:`~repro.errors.ShuttingDownError` outcome — a request is
  *never* silently dropped.

Tasks are pickled by the **submitter**, in the submitter's thread, so a
catalog registered concurrently with a ``submit`` can never race the
snapshot a task carries across the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from ..errors import ServiceError, ShuttingDownError, WorkerCrashError
from ..service.executor import ExecutionOutcome, PlanRequest
from ..testing.faults import Fault, fire
from .worker import (
    WorkerConfig,
    WorkerResult,
    WorkerState,
    WorkerTask,
    crash_outcome,
)

__all__ = ["BreakerScoreboard", "SupervisedWorkerPool", "SupervisorPolicy"]

#: Retire request: an empty frame tells the worker loop to exit cleanly.
_RETIRE = b""


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervised pool sizes, watches, and recycles workers."""

    #: Worker processes (long-lived; each holds a warm context pool of
    #: ``WorkerConfig.pool_size`` entries).
    workers: int = 2
    #: Seconds between heartbeat stamps (worker) and sweeps (parent).
    heartbeat_interval: float = 0.25
    #: A heartbeat older than this marks the worker hung/killed.
    heartbeat_grace: float = 2.0
    #: Retire a worker after serving this many requests (``None`` = never).
    recycle_after_requests: int | None = None
    #: Retire a worker whose RSS crosses this many bytes (``None`` = never).
    max_rss_bytes: int | None = None
    #: Extra seconds past a request's deadline before declaring the
    #: worker hung on it.
    task_grace_seconds: float = 5.0
    #: Timeout for requests without a deadline (``None`` = wait forever).
    default_task_timeout: float | None = None
    #: Pipe-poll slice while a request is in flight (liveness check cadence).
    poll_slice_seconds: float = 0.05


class BreakerScoreboard:
    """Per-backend breaker totals merged from worker deltas."""

    def __init__(self) -> None:
        self.successes: dict[str, int] = {}
        self.failures: dict[str, int] = {}

    def merge(self, deltas: Mapping[str, tuple[int, int]]) -> None:
        """Add one task's ``(successes, failures)`` deltas."""
        for name, (successes, failures) in deltas.items():
            self.successes[name] = self.successes.get(name, 0) + successes
            self.failures[name] = self.failures.get(name, 0) + failures

    def summary(self) -> dict[str, dict[str, int]]:
        """``{backend: {successes, failures}}``, backends sorted."""
        names = sorted(set(self.successes) | set(self.failures))
        return {
            name: {
                "successes": self.successes.get(name, 0),
                "failures": self.failures.get(name, 0),
            }
            for name in names
        }


def _rss_bytes(pid: int | None) -> int | None:
    """Resident-set bytes of *pid* via procfs, or ``None`` off-Linux."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        page = os.sysconf("SC_PAGESIZE")
        return int(fields[1]) * int(page)
    except (OSError, ValueError, IndexError):
        return None


def _supervised_worker_main(
    config: WorkerConfig,
    conn: Any,
    heartbeat: Any,
    interval: float,
) -> None:
    """Child process entry: heartbeat thread + task recv/serve loop."""
    # Read in the child, not passed from the pool: under the forkserver
    # start method the parent is the fork server, not the pool process.
    parent_pid = os.getppid()
    # The parent coordinates shutdown through the pipe and SIGKILL;
    # a terminal Ctrl+C must not race the drain protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            if os.getppid() != parent_pid:
                # Orphaned: the parent died without retiring us, and a
                # sibling's inherited copy of our pipe keeps recv_bytes
                # from ever seeing EOF.
                os._exit(0)
            heartbeat.value = time.monotonic()
            stop.wait(interval)

    # Start beating before the (potentially slow) executor build so the
    # parent's grace window covers warm-up.
    beater = threading.Thread(target=_beat, name="heartbeat", daemon=True)
    beater.start()
    state = WorkerState(config)
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                break
            if payload == _RETIRE:
                break
            task: WorkerTask = pickle.loads(payload)
            result = state.run(task)
            try:
                blob = pickle.dumps(result)
            except Exception as exc:
                # An unpicklable result must not wedge the parent's
                # dispatcher waiting forever — degrade to a structured
                # crash outcome for this request alone.
                blob = pickle.dumps(
                    WorkerResult(
                        index=task.index,
                        outcome=crash_outcome(
                            task.request,
                            WorkerCrashError(
                                f"worker result for request "
                                f"{task.request.id!r} was not picklable: "
                                f"{type(exc).__name__}: {exc}",
                                request_id=task.request.id,
                            ),
                        ),
                    )
                )
            try:
                conn.send_bytes(blob)
            except (BrokenPipeError, OSError):
                break
    finally:
        stop.set()


class _Ticket:
    """One submitted request: pre-pickled task + its settlement future."""

    __slots__ = ("index", "request", "task_bytes", "timeout", "future")

    def __init__(
        self,
        index: int,
        request: Any,
        task_bytes: bytes,
        timeout: float | None,
        future: "Future[WorkerResult]",
    ) -> None:
        self.index = index
        self.request = request
        self.task_bytes = task_bytes
        self.timeout = timeout
        self.future = future


class _WorkerSlot:
    """One supervised worker: process, pipe, heartbeat, bookkeeping.

    ``lock`` arbitrates who may touch the process/pipe: a dispatcher
    holds it for the whole in-flight window (and for recycling), the
    monitor only try-acquires it — so the monitor supervises exactly
    the *idle* workers and never races an in-flight dispatch.
    """

    __slots__ = (
        "index",
        "process",
        "conn",
        "heartbeat",
        "served",
        "spawned_at",
        "busy",
        "lock",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.heartbeat: Any = None
        self.served = 0
        self.spawned_at = 0.0
        self.busy = False
        self.lock = threading.Lock()


def _settled(future: "Future[WorkerResult]") -> ExecutionOutcome:
    """The outcome *future* settles to; a carried input error re-raises."""
    result = future.result()
    if result.error is not None:
        raise result.error
    assert result.outcome is not None  # error/outcome is exhaustive
    return result.outcome


class SupervisedWorkerPool:
    """A restartable worker pool with heartbeats, recycling, and drain."""

    def __init__(
        self,
        config: WorkerConfig | None = None,
        *,
        policy: SupervisorPolicy | None = None,
    ) -> None:
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.config = config if config is not None else WorkerConfig()
        self._ctx = multiprocessing.get_context()
        self.scoreboard = BreakerScoreboard()
        self.pool_hits = 0
        self.pool_delta_hits = 0
        self.pool_misses = 0
        #: Unplanned worker replacements (crash, hang, lost heartbeat).
        self.restarts = 0
        #: Planned worker replacements (served-count / RSS recycling).
        self.recycles = 0
        #: Requests resolved with a crash outcome (worker died/hung).
        self.crashes = 0
        #: Requests resolved by the drain deadline (ShuttingDownError).
        self.aborted = 0
        self.completed = 0
        self._tasks: "Any" = None  # queue.Queue, built in start()
        self._slots: list[_WorkerSlot] = []
        self._dispatchers: list[threading.Thread] = []
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._stats_lock = threading.Lock()
        self._outstanding = 0
        self._started = False
        self._closed = False
        self._aborting = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "SupervisedWorkerPool":
        """Spawn the workers, their dispatchers, and the monitor."""
        if self._started:
            return self
        self._tasks = queue.Queue()
        self._started = True
        for index in range(max(1, self.policy.workers)):
            slot = _WorkerSlot(index)
            self._spawn_into(slot)
            self._slots.append(slot)
            dispatcher = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"repro-serve-dispatch-{index}",
                daemon=True,
            )
            dispatcher.start()
            self._dispatchers.append(dispatcher)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def __enter__(self) -> "SupervisedWorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown(drain=False, deadline=0.0)

    def _spawn_into(self, slot: _WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        heartbeat = self._ctx.Value("d", 0.0)
        process = self._ctx.Process(
            target=_supervised_worker_main,
            args=(
                self.config,
                child_conn,
                heartbeat,
                self.policy.heartbeat_interval,
            ),
            name=f"repro-serve-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.heartbeat = heartbeat
        slot.served = 0
        slot.spawned_at = time.monotonic()

    def _replace(self, slot: _WorkerSlot, *, planned: bool, kill: bool = False) -> None:
        """Respawn *slot*'s worker.  Caller must hold ``slot.lock``."""
        process = slot.process
        if process is not None:
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        self._spawn_into(slot)
        with self._stats_lock:
            if planned:
                self.recycles += 1
            else:
                self.restarts += 1

    # -- submission ---------------------------------------------------------
    def _task_timeout(self, request: Any) -> float | None:
        budget = getattr(request, "budget", None)
        if budget is not None and budget.deadline_seconds is not None:
            return budget.deadline_seconds + self.policy.task_grace_seconds
        return self.policy.default_task_timeout

    def submit(
        self, task: WorkerTask, *, timeout: float | None = None
    ) -> "Future[WorkerResult]":
        """Enqueue *task*; returns a future settling to a WorkerResult.

        The task is pickled *here*, in the submitter's thread, so the
        catalog state it carries is the state at submission time — a
        concurrent ``catalog update`` can never tear the snapshot.
        """
        if not self._started:
            raise RuntimeError("SupervisedWorkerPool.start() was never called")
        if self._closed:
            raise ShuttingDownError(
                "worker pool is draining and no longer accepts work"
            )
        if timeout is None:
            timeout = self._task_timeout(task.request)
        task_bytes = pickle.dumps(task)
        future: "Future[WorkerResult]" = Future()
        ticket = _Ticket(task.index, task.request, task_bytes, timeout, future)
        with self._stats_lock:
            self._outstanding += 1
        self._tasks.put(ticket)
        return future

    def map(
        self,
        requests: Iterable[PlanRequest],
        *,
        chaos: Mapping[int, tuple[Fault, ...]] | None = None,
    ) -> Iterator[ExecutionOutcome]:
        """Yield the outcome of each request, in input order.

        At most two tasks per worker are queued at once, so a long
        batch holds a bounded number of pickled catalogs in the parent.
        *chaos* maps input indexes to faults activated worker-side around
        just that task.  An input error re-raises here when its turn
        comes, so the batch stops with the same taxonomy exit code as
        the serial path.
        """
        faults = chaos or {}
        window: deque[Future[WorkerResult]] = deque()
        for index, request in enumerate(requests):
            task = WorkerTask(index, request, tuple(faults.get(index, ())))
            window.append(self.submit(task))
            if len(window) >= 2 * len(self._slots):
                yield _settled(window.popleft())
        while window:
            yield _settled(window.popleft())

    # -- dispatch -----------------------------------------------------------
    def _dispatch_loop(self, slot: _WorkerSlot) -> None:
        while True:
            ticket = self._tasks.get()
            if ticket is None:
                break
            if not ticket.future.set_running_or_notify_cancel():
                with self._stats_lock:
                    self._outstanding -= 1
                continue
            with slot.lock:
                slot.busy = True
                try:
                    result = self._run_on(slot, ticket)
                finally:
                    slot.busy = False
            self._absorb(result)
            ticket.future.set_result(result)
            with self._stats_lock:
                self._outstanding -= 1
            if not self._aborting:
                self._maybe_recycle(slot)

    def _run_on(self, slot: _WorkerSlot, ticket: _Ticket) -> WorkerResult:
        """Serve one ticket on *slot* (lock held), supervising liveness."""
        sent = False
        for _attempt in range(2):
            if not slot.process.is_alive():
                # Died idle, between tasks — the request is untouched,
                # so a fresh worker can serve it.
                self._replace(slot, planned=False)
            try:
                slot.conn.send_bytes(ticket.task_bytes)
                sent = True
                break
            except (BrokenPipeError, OSError):
                self._replace(slot, planned=False)
        if not sent:
            return self._crash_result(
                ticket, "could not be dispatched (worker unavailable)"
            )
        deadline = (
            None
            if ticket.timeout is None
            else time.monotonic() + ticket.timeout
        )
        while True:
            try:
                ready = slot.conn.poll(self.policy.poll_slice_seconds)
            except (BrokenPipeError, OSError):
                ready = False
            if ready:
                try:
                    payload = slot.conn.recv_bytes()
                except (EOFError, OSError):
                    self._replace(slot, planned=False)
                    return self._crash_result(ticket, "died mid-request")
                result: WorkerResult = pickle.loads(payload)
                slot.served += 1
                return result
            now = time.monotonic()
            if not slot.process.is_alive():
                self._replace(slot, planned=False)
                return self._crash_result(
                    ticket, "was killed mid-request"
                )
            if ticket.timeout is not None and deadline is not None:
                if now >= deadline:
                    self._replace(slot, planned=False, kill=True)
                    return self._crash_result(
                        ticket,
                        f"did not respond within {ticket.timeout:.3f}s "
                        "(hung or crashed)",
                    )
            stamp = max(float(slot.heartbeat.value), slot.spawned_at)
            if now - stamp > self.policy.heartbeat_grace:
                self._replace(slot, planned=False, kill=True)
                return self._crash_result(
                    ticket, "stopped heartbeating mid-request"
                )

    def _crash_result(self, ticket: _Ticket, detail: str) -> WorkerResult:
        request = ticket.request
        error: ServiceError
        if self._aborting:
            error = ShuttingDownError(
                f"request {request.id!r} was aborted by the drain deadline; "
                "retry against a replacement instance"
            )
            with self._stats_lock:
                self.aborted += 1
        else:
            error = WorkerCrashError(
                f"worker serving request {request.id!r} {detail}; "
                "only this request fails",
                request_id=request.id,
            )
            with self._stats_lock:
                self.crashes += 1
        return WorkerResult(
            index=ticket.index, outcome=crash_outcome(request, error)
        )

    def _absorb(self, result: WorkerResult) -> None:
        """Merge one result's deltas into parent-side accounting."""
        with self._stats_lock:
            self.scoreboard.merge(result.breaker_deltas)
            if result.fingerprint:
                if result.pool_event == "delta":
                    self.pool_delta_hits += 1
                elif result.pool_hit:
                    self.pool_hits += 1
                else:
                    self.pool_misses += 1
            self.completed += 1

    def _maybe_recycle(self, slot: _WorkerSlot) -> None:
        """Retire *slot*'s worker between requests when due (planned)."""
        policy = self.policy
        due = (
            policy.recycle_after_requests is not None
            and slot.served >= policy.recycle_after_requests
        )
        if not due and policy.max_rss_bytes is not None:
            rss = _rss_bytes(getattr(slot.process, "pid", None))
            due = rss is not None and rss >= policy.max_rss_bytes
        if not due:
            return
        with slot.lock:
            try:
                slot.conn.send_bytes(_RETIRE)
                slot.process.join(timeout=2.0)
            except (BrokenPipeError, OSError):
                pass
            self._replace(slot, planned=True, kill=slot.process.is_alive())

    # -- supervision --------------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = self.policy.heartbeat_interval
        while not self._monitor_stop.wait(interval):
            try:
                self.heartbeat_sweep()
            except Exception:
                # A chaos fault raised at ``worker_heartbeat`` must not
                # kill supervision itself; the next tick sweeps again.
                continue

    def heartbeat_sweep(self) -> int:
        """One parent-side supervision pass over the *idle* slots.

        Busy slots are skipped (their dispatcher is already watching
        liveness at poll-slice cadence).  Returns the number of workers
        replaced by this sweep.
        """
        fire("worker_heartbeat")
        replaced = 0
        now = time.monotonic()
        for slot in self._slots:
            if not slot.lock.acquire(blocking=False):
                continue
            try:
                if slot.process is None:
                    continue
                if not slot.process.is_alive():
                    self._replace(slot, planned=False)
                    replaced += 1
                    continue
                stamp = max(float(slot.heartbeat.value), slot.spawned_at)
                if now - stamp > self.policy.heartbeat_grace:
                    self._replace(slot, planned=False, kill=True)
                    replaced += 1
            finally:
                slot.lock.release()
        return replaced

    # -- introspection ------------------------------------------------------
    def queue_depth(self) -> int:
        """Tickets waiting for a dispatcher (approximate, thread-safe)."""
        if self._tasks is None:
            return 0
        return self._tasks.qsize()

    def busy_workers(self) -> int:
        return sum(1 for slot in self._slots if slot.busy)

    def outstanding(self) -> int:
        """Requests submitted but not yet settled (queued + in flight)."""
        with self._stats_lock:
            return self._outstanding

    def stats(self) -> dict:
        """A JSON-ready snapshot for the daemon's ``stats`` message."""
        with self._stats_lock:
            return {
                "workers": len(self._slots),
                "busy": sum(1 for slot in self._slots if slot.busy),
                "queue_depth": self.queue_depth(),
                "outstanding": self._outstanding,
                "completed": self.completed,
                "crashes": self.crashes,
                "aborted": self.aborted,
                "restarts": self.restarts,
                "recycles": self.recycles,
                "pool": {
                    "hits": self.pool_hits,
                    "delta_hits": self.pool_delta_hits,
                    "misses": self.pool_misses,
                },
                "breakers": self.scoreboard.summary(),
            }

    # -- shutdown -----------------------------------------------------------
    def shutdown(
        self, *, drain: bool = True, deadline: float | None = None
    ) -> dict:
        """Stop the pool; returns a drain report.

        ``drain=True`` waits (up to *deadline* seconds) for every
        submitted request to settle; whatever is still queued or in
        flight past the deadline is resolved with a structured
        :class:`~repro.errors.ShuttingDownError` outcome — never
        silently dropped.  Fires ``serve_drain`` at each phase
        transition (stop admitting, in-flight settled, pool down).
        """
        if self._closed and not self._started:
            return {"drained": True, "completed": 0, "aborted": 0}
        self._closed = True
        fire("serve_drain")  # phase: stop admitting
        if not self._started:
            return {"drained": True, "completed": 0, "aborted": 0}
        drained = True
        if drain:
            limit = (
                None if deadline is None else time.monotonic() + deadline
            )
            while self.outstanding() > 0:
                if limit is not None and time.monotonic() >= limit:
                    drained = False
                    break
                time.sleep(self.policy.poll_slice_seconds)
        else:
            drained = self.outstanding() == 0
        if not drained:
            # Past the deadline: abort what is queued, kill what is in
            # flight.  Dispatchers resolve their killed requests with
            # ShuttingDownError (``_aborting`` flips the error family).
            self._aborting = True
            while True:
                try:
                    ticket = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if ticket is None:
                    continue
                if ticket.future.set_running_or_notify_cancel():
                    ticket.future.set_result(
                        self._crash_result(ticket, "aborted")
                    )
                with self._stats_lock:
                    self._outstanding -= 1
            for slot in self._slots:
                if slot.busy and slot.process is not None:
                    if slot.process.is_alive():
                        slot.process.kill()
        for _ in self._dispatchers:
            self._tasks.put(None)
        for dispatcher in self._dispatchers:
            dispatcher.join(timeout=10.0)
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        fire("serve_drain")  # phase: in-flight settled
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send_bytes(_RETIRE)
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:
                    pass
        fire("serve_drain")  # phase: pool shut down
        with self._stats_lock:
            return {
                "drained": drained,
                "completed": self.completed,
                "aborted": self.aborted,
                "crashes": self.crashes,
                "restarts": self.restarts,
                "recycles": self.recycles,
            }
