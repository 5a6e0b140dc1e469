"""Durability costs: journal-append overhead and recovery time.

Two numbers bound the price of crash consistency:

* **Append overhead** — the hot-path cost of journaling a catalog
  mutation before acknowledging it.  Measured fsync-free and (when the
  host has a tmpfs) against memory-backed storage, because fsync
  latency and writeback stalls are properties of the device, not the
  implementation — the gate prices the frame/checksum/write work the
  journal adds; the device's fsync cost is recorded separately as
  unasserted ``extra_info``.  CI gate: the durable registry's
  register/update loop must stay within ``MAX_APPEND_OVERHEAD``x of
  the in-memory registry's.
* **Recovery time** — a cold boot over the state directory of an
  800-view catalog (snapshot load, root verification), recorded in
  ``BENCH_corecover.json`` as ``recovery_ms_800_views`` alongside the
  journal-tail replay variant.
"""

import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import gated_ratio, star_workload

from repro.serve.catalogs import CatalogRegistry

NUM_VIEWS = 800
#: CI gate: journaling (sans fsync) must cost <= 10% on the mutation path.
MAX_APPEND_OVERHEAD = 1.10
#: Mutations per timing round — registers dominate, as in tenant onboarding.
ROUND_OPS = 40


def _view_texts():
    return [str(view.definition) for view in star_workload(NUM_VIEWS).views]


def _mutation_round(registry, texts):
    """The register/update hot path both registries run.

    Eight-view catalogs per tenant, as the recovery test below and the
    serve suite use.  Removals are deliberately absent: an in-memory
    remove is a dict pop, so a remove-heavy mix measures the journal
    against ~zero work — the gate is about the paths tenants actually
    exercise per request, where parsing and content hashing dominate.
    (Repeated rounds re-register the same names, which is the
    wholesale-replace path — same cost shape as a fresh register.)
    """
    for index in range(ROUND_OPS):
        registry.register(f"t{index}", texts[8 * index : 8 * index + 8])
    for index in range(0, ROUND_OPS, 8):
        registry.update(
            f"t{index}", add=[texts[8 * ROUND_OPS + index]]
        )


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _gate_state_dir(tmp_path):
    """Memory-backed state dir for the gated ratio, when available.

    On a shared CI disk, dirty-page writeback throttling can inflate
    buffered journal writes for seconds at a stretch — device noise
    the gate must not price.  A tmpfs takes the device out of the
    measurement; without one, the tmp dir is the honest fallback.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return Path(tempfile.mkdtemp(prefix="bench-journal-", dir=shm))
    return tmp_path / "state"


def test_journal_append_overhead(benchmark, tmp_path):
    texts = _view_texts()
    state_dir = _gate_state_dir(tmp_path)
    memory = CatalogRegistry()
    durable = CatalogRegistry(
        state_dir=state_dir,
        journal_fsync=False,
        snapshot_every=1_000_000,  # isolate append cost from compaction
    )

    overhead, memory_seconds, durable_seconds = gated_ratio(
        lambda: _mutation_round(memory, texts),
        lambda: _mutation_round(durable, texts),
        MAX_APPEND_OVERHEAD,
    )

    # The asserted number comes from the matched best-of pair above;
    # benchmark() just records the durable path's distribution.
    benchmark(lambda: _mutation_round(durable, texts))

    # The device's fsync price, reported but never asserted: CI boxes
    # and laptops disagree by orders of magnitude.
    synced = CatalogRegistry(
        state_dir=tmp_path / "synced", snapshot_every=1_000_000
    )
    synced_seconds = _best_of(
        lambda: _mutation_round(synced, texts), repeats=2
    )
    synced.close()
    durable.close()
    if not state_dir.is_relative_to(tmp_path):
        shutil.rmtree(state_dir, ignore_errors=True)

    benchmark.extra_info["in_memory_ms"] = memory_seconds * 1000.0
    benchmark.extra_info["journaled_ms"] = durable_seconds * 1000.0
    benchmark.extra_info["append_overhead_ratio"] = overhead
    benchmark.extra_info["fsync_journaled_ms"] = synced_seconds * 1000.0
    assert overhead <= MAX_APPEND_OVERHEAD, (
        f"journal append costs {overhead:.3f}x the in-memory mutation "
        f"path (gate: {MAX_APPEND_OVERHEAD}x)"
    )


def test_recovery_time_800_views(benchmark, tmp_path):
    texts = _view_texts()
    state = tmp_path / "state"
    seeded = CatalogRegistry(state_dir=state, journal_fsync=False)
    seeded.register("t-big", texts)
    assert seeded.checkpoint() is not None
    seeded.close()

    # A journal-tail variant of the same state dir: the snapshot holds
    # the big catalog, the tail replays a handful of updates.
    tailed = tmp_path / "tailed"
    shutil.copytree(state, tailed)
    extra = CatalogRegistry(state_dir=tailed, journal_fsync=False)
    for index in range(8):
        extra.update("t-big", add=[f"w{index}(X, Y) :- extra{index}(X, Y)"])
    extra.close()

    def recover():
        registry = CatalogRegistry(state_dir=state)
        try:
            assert registry.recovered_catalogs == 1
            assert registry.quarantined_names() == ()
        finally:
            registry.close()

    benchmark(recover)

    def recover_tailed():
        registry = CatalogRegistry(state_dir=tailed)
        try:
            assert registry.replayed_ops == 8
        finally:
            registry.close()

    snapshot_seconds = _best_of(recover, repeats=3)
    tail_seconds = _best_of(recover_tailed, repeats=3)
    benchmark.extra_info["recovery_ms_800_views"] = (
        snapshot_seconds * 1000.0
    )
    benchmark.extra_info["recovery_with_tail_ms"] = tail_seconds * 1000.0
    benchmark.extra_info["views"] = NUM_VIEWS
