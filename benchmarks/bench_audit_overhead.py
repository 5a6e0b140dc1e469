"""Full vs. delta catalog audit on a production-sized catalog.

The incremental contract in one number: on an 800-view chain catalog
(80 relations, 10% locality — the ``bench_catalog_scaling`` workload),
replacing a single view and re-auditing with the persistent
:class:`CatalogAuditor` must re-analyze only the changed view plus its
predicate-index neighbors, and run at least ``MIN_SPEEDUP``x faster
than a from-scratch audit of the same catalog, measured in interleaved,
repeated rounds that are re-measured before the gate fails (see
``conftest.gated_ratio``).  Recorded in ``BENCH_corecover.json``:
``audit_full_ms``, ``audit_delta_ms``, and ``audit_delta_speedup``.
"""

from repro.analysis import CatalogAuditor, audit_catalog
from repro.workload import WorkloadConfig, generate_workload

from conftest import gated_ratio

NUM_VIEWS = 800
NUM_RELATIONS = 80
SEED = 31

#: CI gate: a one-view delta must beat the from-scratch audit by this.
MIN_SPEEDUP = 5.0


def _catalog():
    return generate_workload(
        WorkloadConfig(
            shape="chain",
            num_relations=NUM_RELATIONS,
            query_subgoals=4,
            num_views=NUM_VIEWS,
            view_locality=0.1,
            seed=SEED,
        )
    ).views


def _variants(catalog):
    """The original v0 text and a same-predicate textual variant."""
    original = str(list(catalog)[0].definition)
    body = original.split(":-", 1)[1].strip()
    first_atom = body.split("),", 1)[0] + ")"
    return original, f"{original}, {first_atom}"


def test_audit_delta_speedup(benchmark):
    catalog = _catalog()
    variants = _variants(catalog)
    auditor = CatalogAuditor()
    auditor.audit(catalog)  # warm: every unit cached
    flip = [0]

    def delta_round():
        flip[0] ^= 1
        catalog.replace_view(variants[flip[0]])
        return auditor.audit(catalog)

    report = benchmark(delta_round)

    # The delta re-analyzes exactly the changed view and the views the
    # predicate index says could see it — never the whole catalog.
    neighbors = catalog.index_neighbors("v0")
    assert report.views_total == NUM_VIEWS
    assert report.views_analyzed == 1 + len(neighbors)
    assert report.views_reused == NUM_VIEWS - 1 - len(neighbors)

    ratio, full_seconds, delta_seconds = gated_ratio(
        lambda: audit_catalog(catalog), delta_round, 1 / MIN_SPEEDUP
    )
    speedup = 1 / ratio if ratio > 0 else float("inf")
    benchmark.extra_info["audit_full_ms"] = full_seconds * 1000.0
    benchmark.extra_info["audit_delta_ms"] = delta_seconds * 1000.0
    benchmark.extra_info["audit_delta_speedup"] = speedup
    benchmark.extra_info["num_views"] = NUM_VIEWS
    benchmark.extra_info["views_reanalyzed"] = 1 + len(neighbors)
    assert speedup >= MIN_SPEEDUP, (
        f"one-view delta audit only {speedup:.1f}x faster than scratch "
        f"({full_seconds * 1000:.0f}ms vs {delta_seconds * 1000:.0f}ms) "
        f"on {NUM_VIEWS} views"
    )
