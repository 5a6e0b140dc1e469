"""The in-process workloads: ``paper_cold`` and ``costed``.

Both make sequential ``plan()`` calls, one at a time, each with a fresh
``PlannerContext``, as a library or CLI user's one-shot call does.  An
operation parses the query text and plans it.  The query and view texts
are generated once; the timed set-up parses the catalogs (and, for
``costed``, materializes the view database).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from checks import OutputCheck, is_rewritable
from common import (
    Samples,
    end_to_end,
    layer_metrics,
    median_rows,
    rewriting_digest,
    run_result,
    time_limit_reached,
    timed_setups,
    trace_overhead,
)
from workloads import (
    CHAIN_RELATIONS,
    STAR_RELATIONS,
    generate,
    input_hash,
    merged,
    shape_seed,
)

#: ``paper_cold`` catalogs hold 1000 views (the right end of Figs 6 and
#: 8), merged from eight generated instances of 125 views each, so each
#: catalog serves eight queries.  Star planning times vary by 1.3x
#: between queries, chain times by 2.3x, so chain gets more catalogs per
#: ``nondistinguished`` value: a run averages over 16 star and 64 chain
#: queries.
PAPER_MERGE = 8
PAPER_VIEWS_EACH = 125
PAPER_CATALOGS = {"star": 1, "chain": 4}
#: ``costed`` catalogs: one of this many views per query, all variables
#: distinguished (Figs 6(a), 8(a)).  The heuristic annotator's price
#: grows with the catalog, so 100 chain views keep a run's 100 chain
#: samples within its time box.  (With one nondistinguished variable a
#: star query has a handful of GMRs, and pricing them costs less than
#: grouping.)
COSTED_VIEWS = 100
#: The M2 price of a star query grows with its number of GMRs and the M3
#: price of a chain query with the factorial of its GMRs' lengths; both
#: vary severalfold between queries, so a run averages over many.  Star
#: prices spread widest (12-100 ms on one seed): the median of 24 of
#: them moved by 0.15 between draws, of 96 by about half that.  One pass
#: over the (star, chain) pairs then gives the 100 samples per shape.
COSTED_QUERIES = {"star": 100, "chain": 50}
#: Each ``costed`` query's views materialize over a uniform base database
#: seeded by the query's own seed, so no one draw sets a whole run's data.
BASE_TUPLES = 12
BASE_DOMAIN = 8


@dataclass
class Item:
    """One query with everything its ``plan()`` call needs."""

    label: str
    shape: str
    nondistinguished: int
    query: str
    catalog: object
    options: dict = field(default_factory=dict)


def _pairs(items):
    """(star, chain) pairs covering every item; the shorter list repeats.

    Operations run pair by pair, so both shapes get the same number of
    samples and every stretch of the run mixes them.
    """
    star = [item for item in items if item.shape == "star"]
    chain = [item for item in items if item.shape == "chain"]
    return [
        (star[i % len(star)], chain[i % len(chain)])
        for i in range(max(len(star), len(chain)))
    ]


def generate_paper(seed):
    """One group of instances per catalog: ``(instances, merged view texts)``."""
    groups = []
    for nondistinguished in (0, 1):
        for shape in ("star", "chain"):
            for number in range(PAPER_CATALOGS[shape]):
                seeds = [
                    shape_seed(shape, seed, number * PAPER_MERGE + k)
                    for k in range(PAPER_MERGE)
                ]
                groups.append(
                    merged(
                        shape, seeds, PAPER_VIEWS_EACH, nondistinguished,
                        is_rewritable, f"{shape[0]}{nondistinguished}{number}",
                    )
                )
    return groups


def build_paper(groups):
    from repro import ViewCatalog

    items = []
    for members, texts in groups:
        catalog = ViewCatalog(texts)
        items.extend(
            Item(i.label, i.shape, i.nondistinguished, i.query, catalog)
            for i in members
        )
    return _pairs(items)


def _base_database(relations: int, rng: random.Random):
    from repro.engine import Database, Relation

    database = Database()
    for index in range(relations):
        relation = Relation(f"r{index}", 2)
        for _ in range(BASE_TUPLES):
            relation.add((rng.randrange(BASE_DOMAIN), rng.randrange(BASE_DOMAIN)))
        database.add_relation(relation)
    return database


def generate_costed(seed):
    return [
        generate(shape, shape_seed(shape, seed, index), COSTED_VIEWS, 0, is_rewritable)
        for shape in ("star", "chain")
        for index in range(COSTED_QUERIES[shape])
    ]


def build_costed(instances):
    return _pairs([_costed_item(instance) for instance in instances])


def _costed_item(instance):
    from repro import ViewCatalog
    from repro.engine import materialize_views

    catalog = ViewCatalog(list(instance.views))
    relations = STAR_RELATIONS if instance.shape == "star" else CHAIN_RELATIONS
    base = _base_database(relations, random.Random(instance.seed))
    options = {"database": materialize_views(catalog, base)}
    if instance.shape == "star":
        options["cost_model"] = "m2"
    else:
        options["cost_model"] = "m3"
        options["cost_options"] = {"annotator": "heuristic"}
    return Item(
        instance.label, instance.shape, instance.nondistinguished, instance.query,
        catalog, options,
    )


def _chosen_plan(result) -> str:
    chosen = result.chosen
    return f"{chosen.rewriting}|{chosen.plan}|{chosen.cost!r}"


class _Runner:
    def __init__(self, pairs, costed, check, tracer=None):
        self.pairs = pairs
        self.costed = costed
        self.check = check
        self.tracer = tracer
        self.rows: list[dict] = []
        self.op = 0

    def one(self, item, samples: Samples) -> None:
        from repro import parse_query, plan
        from repro.planner.context import PlannerContext

        samples.attempted += 1
        self.op += 1
        rid = f"op{self.op}"
        if self.tracer is not None:
            self.tracer.set_request(rid)
        started = time.perf_counter()
        try:
            query = parse_query(item.query)
            result = plan(
                query, item.catalog, context=PlannerContext(), **item.options
            )
        except Exception:  # any failure is a failed operation, never retried
            samples.failed += 1
            return
        seconds = time.perf_counter() - started
        texts = [str(r) for r in result.rewritings]
        digest = rewriting_digest(texts, _chosen_plan(result) if self.costed else "")
        if not self.check.check(item.label, digest, texts):
            samples.failed += 1
            return
        samples.record(item.shape, item.nondistinguished, seconds)
        samples.completed_plans += 1
        if self.tracer is not None:
            self.rows.append(_layer_row(rid, item.shape, result))

    def measure(self, seconds: float, need_samples: bool) -> Samples:
        """Whole passes over the pairs, so every query weighs the same.

        A window without a sample floor (the traced run's) stops when its
        time is up, even within a pass: a ``costed`` pass can take 30 s.
        """
        samples = Samples()
        started = time.perf_counter()

        def done() -> bool:
            return time_limit_reached(started, seconds, samples, need_samples)

        while not done():
            for star, chain in self.pairs:
                self.one(star, samples)
                self.one(chain, samples)
                if not need_samples and done():
                    break
        samples.window_seconds = time.perf_counter() - started
        return samples


def _layer_row(rid: str, shape: str, result) -> dict:
    """Per-operation numbers the program already reports for one plan()."""
    phases = result.phase_profile().to_json()["phase_seconds"]
    stats = result.stats
    details = result.details
    row = {
        "rid": rid,
        "shape": shape,
        "core.rewritings": len(result.rewritings),
        "core.minimize_ms": phases["minimize"] * 1e3,
        "core.canonical_db_ms": phases["canonical_db"] * 1e3,
        "planner.preflight_ms": phases["preflight"] * 1e3,
        "cost.ranking_ms": phases["cost_ranking"] * 1e3,
        "containment.hom_searches": stats.hom_searches,
        "containment.hom_nodes": stats.hom_nodes,
        "containment.fast_path_share": (
            stats.fast_path_searches / stats.hom_searches
            if stats.hom_searches
            else 0.0
        ),
        "containment.cache_hit_rate": stats.cache_hit_rate,
    }
    core_stats = getattr(details, "stats", None)
    if core_stats is not None:
        row["core.view_classes"] = core_stats.view_classes
        row["views.touched_ratio"] = core_stats.touched_views_ratio
    return row


#: Span-measured layer metrics: metric name -> span name.
_SPAN_METRICS = {
    "core.grouping_ms": "core.grouping",
    "core.view_tuples_ms": "core.view_tuples",
    "core.tuple_cores_ms": "core.tuple_cores",
    "core.set_cover_ms": "core.set_cover",
    "views.relevant_views_ms": "views.relevant_views",
    "datalog.parse_ms": "datalog.parse",
    "cost.m2_ms": "cost.m2",
    "cost.m3_ms": "cost.m3",
    "cost.annotate_ms": "cost.annotate",
    "cost.execute_ms": "cost.execute",
}


def run(workload: str, seed: int, seconds: float, trace: bool, tracer_factory):
    costed = workload == "costed"
    if costed:
        instances = generate_costed(seed)
        pairs, setup_seconds = timed_setups(lambda: build_costed(instances))
    else:
        groups = generate_paper(seed)
        instances = [i for members, _texts in groups for i in members]
        pairs, setup_seconds = timed_setups(lambda: build_paper(groups))
    sha = input_hash(instances)
    check = OutputCheck(workload, seed, sha)

    tracer = None
    if not trace:
        runner = _Runner(pairs, costed, check)
        samples = runner.measure(seconds, need_samples=True)
        metrics = end_to_end(samples, setup_seconds)
    else:
        # An untraced window, then a traced one, over the same pairs, so
        # trace.overhead compares like mixes of operations.
        plain = _Runner(pairs, costed, check)
        base = plain.measure(seconds, need_samples=False)
        tracer = tracer_factory()
        runner = _Runner(pairs, costed, check, tracer)
        tracer.enable()
        try:
            samples = runner.measure(seconds, need_samples=False)
        finally:
            tracer.disable()
        samples.attempted += base.attempted
        samples.failed += base.failed
        rows = runner.rows
        for metric, span in _SPAN_METRICS.items():
            per_op = tracer.per_request(span)
            for row in rows:
                if row["rid"] in per_op:
                    row[metric] = per_op[row["rid"]]
        orders = tracer.count_per_request("cost.execute")
        for row in rows:
            if row["rid"] in orders:
                row["cost.orders_executed"] = orders[row["rid"]]
        names = {name for row in rows for name in row} - {"rid", "shape"}
        values = {name: median_rows(rows, name) for name in names}
        values["trace.overhead"] = trace_overhead(samples, base)
        metrics = layer_metrics(values)

    items = {item.label: item for pair in pairs for item in pair}
    check.certify(list(items.values()), lambda item: item.catalog, seed)
    return run_result(samples, metrics, check, sha), tracer
