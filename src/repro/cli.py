"""Command-line interface.

Subcommands::

    python -m repro rewrite  "q(X) :- e(X, X)" --views views.dl [--certify]
    python -m repro optimize "q(X) :- e(X, X)" --views views.dl --data db.json
    python -m repro certain  "q(X) :- e(X, X)" --views views.dl --view-data v.json
    python -m repro lint     "q(X) :- e(X, X)" --views views.dl [--format json]
    python -m repro audit    views.dl [--format json] [--baseline audit.json]
    python -m repro batch    requests.ndjson --views views.dl [--cache DIR]
                             [--workers N] [--profile]
    python -m repro serve run  --views views.dl [--port N] [--cache DIR]
    python -m repro serve send requests.ndjson --port N
    python -m repro faults   list [--format json]
    python -m repro figures fig6a [--full] [--csv DIR]

* ``rewrite`` runs a rewriting backend (CoreCover by default) and prints
  the rewritings it generates; ``--certify`` re-verifies the result from
  first principles.  Backends are resolved by name from the
  :mod:`repro.planner.registry`, so ``--backend`` accepts anything
  registered there (including ``inverse-rules``, which prints the
  maximally-contained program's inverse rules instead of rewritings).
* ``optimize`` additionally loads a base database (JSON: relation name to
  list of rows), materializes the views, and prints the cost-optimal
  physical plan under the chosen cost model (``--explain`` for a step
  table).  Cost models come from the :mod:`repro.cost.registry`.
* ``certain`` computes certain answers from a *view* instance with the
  inverse-rules algorithm (no equivalent rewriting required).
* ``lint`` runs the :mod:`repro.analysis` static-analysis rules over the
  query, view catalog, and planner configuration without planning
  anything.  ``--format json`` emits the SARIF-shaped report; diagnostics
  at or above ``--fail-on`` exit with code 73
  (:class:`repro.errors.AnalysisError`).  ``rewrite`` and ``optimize``
  accept ``--preflight`` to run the same rules before planning and stop
  on error-severity findings.
* ``audit`` runs the whole-catalog ``C1xx`` rules
  (:mod:`repro.analysis.catalog`) over a view file alone — no query:
  subsumed/equivalent/shadowed/unsatisfiable views, base-predicate
  coverage, acyclicity classification.  Same ``--format``,
  ``--select/--ignore``, and ``--fail-on`` contract as ``lint``;
  ``--baseline FILE`` suppresses previously accepted findings (matched
  by content fingerprint) so CI gates on *new* findings only, and
  ``--update-baseline`` regenerates the file from the current findings.
* ``batch`` runs the :mod:`repro.service` resilient executor over
  NDJSON requests (one JSON object per line; ``-`` reads stdin) and
  emits one JSON outcome per line: status, attempts, backend used,
  breaker states, degraded flag.  Failures never abort the batch; the
  process exit code summarizes them afterwards.  ``--workers N`` fans
  the batch across the :mod:`repro.parallel` supervised worker pool
  (outcomes stay in input order); ``--profile`` attaches a phase-level
  profile to every outcome line.  ``plan`` is an alias of ``rewrite``.
* ``serve`` is the resident planning daemon (:mod:`repro.serve`):
  ``serve run`` listens on TCP/Unix for newline-delimited JSON plan
  requests (batch schema plus ``catalog``/``tenant``), with bounded
  admission, per-tenant rate limits, heartbeat-supervised workers, and
  a graceful SIGTERM drain (clean drain exits 0; shed requests carry
  exit code 78, drain-time rejections 79).  ``serve send`` is the
  matching client; like ``batch``, its exit status reflects the final
  failure's taxonomy code.
* ``faults`` introspects the deterministic fault-injection harness;
  ``faults list`` enumerates every registered injection point, so chaos
  tests and docs cannot silently drift from the registry.
* ``figures`` regenerates the Section 7 experiment series (delegates to
  :mod:`repro.experiments.figures`).

As a convenience, ``python -m repro "q(X) :- ..." --views v.dl --backend
minicon`` (no subcommand) is treated as ``rewrite``.

Queries can be given inline or as ``@path/to/file``; view files contain
one datalog rule per line (``#``/``%`` comments allowed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .baselines import certain_answers
from .core import CoreCoverResult, certify
from .cost import explain_plan, improve_with_filters
from .datalog import ConjunctiveQuery, parse_program, parse_query
from .datalog.sql import SqlSchema, parse_sql
from .engine import Database, evaluate, materialize_views
from .errors import AnalysisError, ParseError, ReproError, structured_error
from .planner import (
    PlanStatus,
    ResourceBudget,
    get_backend,
    plan,
)
from .views import ViewCatalog

#: Subcommand names, used by the ``--backend``-without-subcommand shortcut.
_SUBCOMMANDS = (
    "rewrite", "plan", "optimize", "certain", "lint", "audit", "batch",
    "faults", "figures", "serve",
)


def _load_text(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text()
    return value


def _load_query(value: str, sql_schema: str | None = None) -> ConjunctiveQuery:
    """Parse a query given as datalog, or as SQL when a schema is supplied.

    ``sql_schema`` is a path to a JSON file mapping table names to ordered
    column-name lists.
    """
    text = _load_text(value).strip()
    if sql_schema is None:
        return parse_query(text)
    schema = SqlSchema(json.loads(Path(sql_schema).read_text()))
    return parse_sql(text, schema)


def _load_views(path: str) -> ViewCatalog:
    return ViewCatalog(parse_program(Path(path).read_text()))


def _load_database(path: str) -> Database:
    payload = json.loads(Path(path).read_text())
    database = Database()
    for name, rows in payload.items():
        if not rows:
            raise SystemExit(
                f"relation {name!r} is empty; arity cannot be inferred"
            )
        for row in rows:
            database.add_fact(name, tuple(row))
    return database


def _build_budget(args: argparse.Namespace) -> ResourceBudget | None:
    """A ResourceBudget from the CLI flags, or ``None`` when none are set."""
    if (
        args.timeout is None
        and args.max_hom_searches is None
        and args.max_rewritings is None
    ):
        return None
    return ResourceBudget(
        deadline_seconds=args.timeout,
        max_hom_searches=args.max_hom_searches,
        max_rewritings=args.max_rewritings,
        strict=args.strict_budget,
    )


def _add_budget_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline; on expiry the best-so-far rewritings "
             "found are printed (anytime mode)",
    )
    command.add_argument(
        "--max-hom-searches", type=int, default=None, metavar="N",
        help="cap on homomorphism searches before giving up",
    )
    command.add_argument(
        "--max-rewritings", type=int, default=None, metavar="N",
        help="stop after N rewritings have been recorded",
    )
    command.add_argument(
        "--strict-budget", action="store_true",
        help="raise on budget exhaustion instead of degrading to "
             "best-so-far results (exit 69)",
    )


def _split_codes(values) -> list[str] | None:
    """Flatten repeatable, comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    codes = [code.strip() for chunk in values for code in chunk.split(",")]
    return [code for code in codes if code]


def _handle_preflight(planned, *, verbose: bool) -> int | None:
    """Print preflight diagnostics; the exit code when planning was rejected."""
    from .planner import PlanStatus

    outcome = planned.outcome
    if outcome is None or not outcome.diagnostics:
        return None
    if outcome.status is PlanStatus.REJECTED:
        print("preflight rejected the input:")
        for diagnostic in outcome.diagnostics:
            print("   ", diagnostic)
        if verbose:
            _print_planner_stats(planned.stats)
        errors = [d for d in outcome.diagnostics if d.severity.name == "ERROR"]
        rejection = AnalysisError(
            f"preflight rejected the input with {len(errors)} "
            "error-severity diagnostic(s)",
            diagnostics=tuple(outcome.diagnostics),
        )
        print(structured_error(rejection), file=sys.stderr)
        return AnalysisError.exit_code
    # Clean-enough preflight: surface the advisories without polluting the
    # machine-readable result stream.
    for diagnostic in outcome.diagnostics:
        print(f"preflight: {diagnostic}", file=sys.stderr)
    return None


def _print_planner_stats(stats) -> None:
    """Render a PlannerStats snapshot (``--verbose`` output)."""
    print(
        f"planner: {stats.hom_searches} homomorphism searches "
        f"({stats.hom_nodes} nodes), "
        f"{stats.core_searches} tuple-core searches; "
        f"cache {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"({stats.cache_hit_rate:.0%} hit rate, "
        f"caching {'on' if stats.caching_enabled else 'off'})"
    )
    for name, seconds in stats.stages:
        print(f"    stage {name}: {seconds * 1000:.1f} ms")


def _cmd_rewrite(args: argparse.Namespace) -> int:
    parse_started = time.perf_counter()
    query = _load_query(args.query, args.sql_schema)
    parse_seconds = time.perf_counter() - parse_started
    views = _load_views(args.views)
    backend = get_backend(args.backend)

    options: dict = {}
    if backend.name == "corecover-star":
        options["max_rewritings"] = args.limit
    elif backend.name == "minicon":
        options["require_equivalent"] = True
        options["max_rewritings"] = args.limit

    planned = plan(
        query, views, backend=backend.name, budget=_build_budget(args),
        preflight=args.preflight, **options,
    )

    rejected = _handle_preflight(planned, verbose=args.verbose)
    if rejected is not None:
        return rejected
    if args.profile:
        from .profiling import profile_from_stages

        print(
            profile_from_stages(
                planned.stats.stages, parse_seconds=parse_seconds
            ).render_text()
        )
    print(f"query: {query}")
    outcome = planned.outcome
    if outcome is not None and outcome.status is not PlanStatus.COMPLETE:
        if outcome.status is PlanStatus.BUDGET_EXHAUSTED:
            print(
                f"budget exhausted ({outcome.exhausted_resource}) after "
                f"{outcome.elapsed_seconds:.3f}s; best-so-far results:"
            )
        else:
            print(
                f"planning failed "
                f"({type(outcome.error).__name__}: {outcome.error}) after "
                f"{outcome.elapsed_seconds:.3f}s; best-so-far results:",
            )
            print(structured_error(outcome.error), file=sys.stderr)
        for anytime in outcome.rewritings:
            tag = "certified" if anytime.certified else "uncertified"
            print(f"    [{tag}] {anytime.query}")
        if args.verbose:
            _print_planner_stats(planned.stats)
        return 0 if outcome.certified_rewritings else 1
    if not backend.produces_rewritings:
        rules = planned.details
        print(f"{len(rules)} inverse rule(s) (maximally-contained program):")
        for rule in rules:
            print("   ", rule)
        if args.verbose:
            _print_planner_stats(planned.stats)
        return 0

    rewritings = planned.rewritings
    if not rewritings:
        print("no equivalent rewriting exists for this query and view set")
        return 1
    print(f"{len(rewritings)} rewriting(s):")
    for rewriting in rewritings:
        print("   ", rewriting)

    result = planned.details if isinstance(planned.details, CoreCoverResult) else None
    if result is not None and args.certify:
        certificate = certify(result, views, verify_minimality=True)
        print(certificate)
        if not certificate.ok:
            return 3
    if args.verbose:
        if result is not None:
            print("\nview tuples:")
            for core in result.cores:
                print("   ", core)
            if result.filter_candidates:
                print("filter candidates:",
                      ", ".join(str(f) for f in result.filter_candidates))
            stats = result.stats
            print(
                f"stats: {stats.total_views} views in {stats.view_classes} "
                f"classes; {stats.total_view_tuples} view tuples in "
                f"{stats.view_tuple_classes} classes; "
                f"{stats.elapsed_seconds * 1000:.1f} ms"
            )
        _print_planner_stats(planned.stats)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    query = _load_query(args.query, args.sql_schema)
    views = _load_views(args.views)
    base = _load_database(args.data)
    view_db = materialize_views(views, base)

    cost_options = {}
    if args.cost_model == "m3":
        cost_options["annotator"] = args.annotator
    planned = plan(
        query,
        views,
        backend="corecover-star",
        cost_model=args.cost_model,
        database=view_db,
        cost_options=cost_options,
        max_rewritings=args.limit,
        budget=_build_budget(args),
        preflight=args.preflight,
    )
    rejected = _handle_preflight(planned, verbose=args.verbose)
    if rejected is not None:
        return rejected
    outcome = planned.outcome
    if outcome is not None and outcome.status is not PlanStatus.COMPLETE:
        reason = (
            f"budget exhausted ({outcome.exhausted_resource})"
            if outcome.status is PlanStatus.BUDGET_EXHAUSTED
            else f"planning failed ({type(outcome.error).__name__})"
        )
        print(
            f"{reason} after {outcome.elapsed_seconds:.3f}s; "
            f"{len(outcome.certified_rewritings)} certified rewriting(s) "
            "found but no cost-based choice was made"
        )
        for rewriting in outcome.certified_rewritings:
            print("    [certified]", rewriting)
        return 1
    if not planned.rewritings:
        print("no equivalent rewriting exists for this query and view set")
        return 1
    best = planned.chosen
    if best is None:
        print("no rewriting is plannable under the chosen cost model")
        return 1
    result = planned.details

    model = planned.cost_model
    if model == "m1":
        print(f"M1-optimal rewriting ({len(best.rewriting.body)} subgoals):")
        print("   ", best.rewriting)
        if args.verbose:
            _print_planner_stats(planned.stats)
        return 0

    if model == "m2" and args.filters:
        best = improve_with_filters(
            best.rewriting, result.filter_candidates, view_db
        )
    label = model.upper()
    suffix = f", {args.annotator} drops" if model == "m3" else ""
    print(f"{label}-optimal rewriting (cost {best.cost:g}{suffix}):")
    print("    rewriting:", best.rewriting)
    print("    plan     :", best.plan)

    if args.explain:
        print()
        print(explain_plan(best))
    if args.verbose:
        _print_planner_stats(planned.stats)
    expected = evaluate(query, base)
    answer = best.execution.answer
    print(f"    answer   : {len(answer)} tuples "
          f"({'matches' if answer == expected else 'MISMATCH with'} "
          "the query on base data)")
    return 0 if answer == expected else 2


def _cmd_certain(args: argparse.Namespace) -> int:
    """Certain answers from a view instance via the inverse-rules algorithm."""
    query = _load_query(args.query, args.sql_schema)
    views = _load_views(args.views)
    view_db = _load_database(args.view_data)
    answers = sorted(certain_answers(query, views, view_db), key=repr)
    print(f"query: {query}")
    print(f"{len(answers)} certain answer(s):")
    for row in answers:
        print("   ", row)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of a query + view catalog + planner configuration."""
    from .analysis import PlannerConfig, Severity, analyze, render_json
    from .datalog.parser import parse_program_spans, parse_query_spans

    if args.sql_schema is not None:
        # SQL input has no datalog source spans; lint the translated query.
        query = _load_query(args.query, args.sql_schema)
        query_spans = None
    else:
        query, query_spans = parse_query_spans(_load_text(args.query).strip())
    views: ViewCatalog = ViewCatalog()
    view_spans = None
    if args.views is not None:
        rules, view_spans = parse_program_spans(Path(args.views).read_text())
        views = ViewCatalog(rules)
    schema = (
        json.loads(Path(args.schema).read_text())
        if args.schema is not None
        else None
    )
    config = None
    if args.backend is not None or args.cost_model is not None:
        config = PlannerConfig(
            backend=args.backend,
            cost_model=args.cost_model,
            has_database=args.with_data,
            has_statistics=args.with_data,
        )
    report = analyze(
        query,
        views,
        config=config,
        schema=schema,
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
        query_spans=query_spans,
        view_spans=view_spans,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(report.render_text())
    if args.fail_on == "never":
        return 0
    threshold = Severity.from_name(args.fail_on)
    offending = report.at_least(threshold)
    if offending:
        # Raising (rather than returning the code) routes through
        # main()'s taxonomy handler, so ``repro lint`` failures carry
        # the same structured one-line JSON on stderr as every other
        # taxonomy error.
        raise AnalysisError(
            f"{len(offending)} diagnostic(s) at or above "
            f"{args.fail_on} severity",
            diagnostics=tuple(offending),
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Whole-catalog static analysis (the C1xx audit rules)."""
    from .analysis import Severity, render_json
    from .analysis.catalog import (
        CatalogAuditor,
        load_baseline,
        write_baseline,
    )
    from .datalog.parser import parse_program_spans

    rules, view_spans = parse_program_spans(Path(args.views).read_text())
    views = ViewCatalog(rules)
    schema = (
        json.loads(Path(args.schema).read_text())
        if args.schema is not None
        else None
    )
    auditor = CatalogAuditor(
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
    )
    if args.update_baseline:
        if args.baseline is None:
            raise ParseError("--update-baseline requires --baseline FILE")
        # Regenerate from the *unsuppressed* findings: pinning through an
        # existing baseline would silently drop still-present findings.
        report = auditor.audit(views, schema=schema, view_spans=view_spans)
        count = write_baseline(report, args.baseline)
        print(
            f"baseline {args.baseline}: pinned {count} finding(s) "
            f"from {report.views_total} view(s)"
        )
        return 0
    baseline = (
        load_baseline(args.baseline) if args.baseline is not None else None
    )
    report = auditor.audit(
        views, schema=schema, view_spans=view_spans, baseline=baseline
    )
    if args.format == "json":
        print(
            render_json(
                report,
                views_source=args.views,
                driver_name="repro-audit",
            )
        )
    else:
        print(report.render_text())
    if args.fail_on == "never":
        return 0
    threshold = Severity.from_name(args.fail_on)
    offending = report.at_least(threshold)
    if offending:
        # Same contract as lint: raising routes through main()'s taxonomy
        # handler -> exit 73 + structured one-line JSON on stderr.
        raise AnalysisError(
            f"catalog audit: {len(offending)} diagnostic(s) at or above "
            f"{args.fail_on} severity"
            + (
                f" ({report.suppressed} baseline-suppressed)"
                if report.suppressed
                else ""
            ),
            diagnostics=tuple(offending),
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Supervised NDJSON batch execution over the failover chain."""
    from .service import (
        BreakerPolicy,
        PlanCache,
        ResilientExecutor,
        RetryPolicy,
        ServicePolicy,
        parse_requests,
        run_batch,
    )

    views = _load_views(args.views)
    chain = tuple(
        name.strip() for name in args.chain.split(",") if name.strip()
    )
    policy = ServicePolicy(
        chain=chain,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay=args.retry_base_delay,
        ),
        breaker=BreakerPolicy(
            window=args.breaker_window,
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
    )
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.requests).read_text().splitlines()
    requests = parse_requests(lines, views, default_budget=_build_budget(args))

    pool = None
    if args.workers != 1:
        # <= 0 = auto (one worker per CPU).  Every request is parsed and
        # validated before the first outcome; the serial path below
        # streams outcomes until an intake error aborts it.
        from .parallel import SupervisedWorkerPool, SupervisorPolicy
        from .parallel.worker import WorkerConfig

        requests = list(requests)
        pool = SupervisedWorkerPool(
            WorkerConfig(
                policy=policy,
                cache_dir=args.cache,
                cache_ttl=args.cache_ttl,
                strict_cache=args.strict_cache,
                profile=args.profile,
            ),
            policy=SupervisorPolicy(
                workers=(
                    args.workers if args.workers > 0 else os.cpu_count() or 1
                ),
                task_grace_seconds=args.task_grace,
            ),
        ).start()
        outcomes = pool.map(requests)
    else:
        cache = None
        if args.cache is not None:
            cache = PlanCache(
                args.cache,
                ttl_seconds=args.cache_ttl,
                strict=args.strict_cache,
            )
        executor = ResilientExecutor(
            policy, cache=cache, profile=args.profile
        )
        outcomes = run_batch(executor, requests)

    try:
        return _emit_batch(args, outcomes, pool)
    finally:
        if pool is not None:
            pool.shutdown(drain=False)


def _emit_batch(args: argparse.Namespace, outcomes, pool) -> int:
    """Print every batch outcome, then the summary; raise the last error."""
    counts = {"ok": 0, "degraded": 0, "failed": 0}
    last_error: BaseException | None = None
    for outcome in outcomes:
        counts[outcome.status] += 1
        if outcome.error is not None:
            last_error = outcome.error
        if args.format == "json":
            print(json.dumps(outcome.to_json()))
        else:
            print(
                f"{outcome.request_id}: {outcome.status} "
                f"backend={outcome.backend_used or '-'} "
                f"attempts={outcome.attempts} cache={outcome.cache} "
                f"degraded={str(outcome.degraded).lower()} "
                f"rewritings={len(outcome.rewritings)}"
            )
            for rewriting in outcome.rewritings:
                print("   ", rewriting)
    if pool is not None and args.profile:
        # One JSON line so scripts can read the warm-context economics:
        # exact root matches, small-delta upgrades, and cold starts.
        print(
            json.dumps(
                {
                    "context_pool": {
                        "hits": pool.pool_hits,
                        "delta_hits": pool.pool_delta_hits,
                        "misses": pool.pool_misses,
                    }
                }
            ),
            file=sys.stderr,
        )
    print(
        f"batch: {counts['ok']} ok, {counts['degraded']} degraded, "
        f"{counts['failed']} failed",
        file=sys.stderr,
    )
    if last_error is not None:
        # Outcome lines were all emitted; the exit status reflects the
        # batch's *final* failure mode through the taxonomy handler —
        # e.g. 75 (circuit open) when the chain ended up breaker-open,
        # which tells the operator "back off and retry later".
        raise last_error
    return 0


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """Run the resident planning daemon until drained (SIGTERM/drain)."""
    import asyncio

    from .errors import ParseError
    from .parallel import SupervisorPolicy
    from .parallel.worker import WorkerConfig
    from .serve import AdmissionPolicy, PlanningDaemon, ServeConfig
    from .service import BreakerPolicy, RetryPolicy, ServicePolicy
    from .testing.faults import fault_from_spec, inject

    views = _load_views(args.views) if args.views is not None else None
    chain = tuple(
        name.strip() for name in args.chain.split(",") if name.strip()
    )
    policy = ServicePolicy(
        chain=chain,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        breaker=BreakerPolicy(cooldown_seconds=args.breaker_cooldown),
    )
    tenant_rates: dict[str, float] = {}
    for spec in args.tenant_rate_override or ():
        name, sep, rate = spec.partition("=")
        if not sep or not name:
            raise ParseError(
                f"--tenant-rate-override {spec!r} must be NAME=RATE"
            )
        try:
            tenant_rates[name] = float(rate)
        except ValueError:
            raise ParseError(
                f"--tenant-rate-override {spec!r}: rate must be a number"
            ) from None
    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        admission=AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            tenant_rates=tenant_rates,
        ),
        supervisor=SupervisorPolicy(
            workers=args.workers,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_grace=args.heartbeat_grace,
            recycle_after_requests=args.recycle_after,
            max_rss_bytes=(
                int(args.max_rss_mb * 1024 * 1024)
                if args.max_rss_mb is not None
                else None
            ),
            task_grace_seconds=args.task_grace,
            default_task_timeout=args.task_timeout,
        ),
        worker=WorkerConfig(
            policy=policy,
            cache_dir=args.cache,
            cache_ttl=args.cache_ttl,
            strict_cache=args.strict_cache,
            profile=args.profile,
            pool_size=args.pool_size,
        ),
        default_budget=_build_budget(args),
        drain_deadline=args.drain_deadline,
        audit_fail_on=(
            None if args.audit_fail_on == "never" else args.audit_fail_on
        ),
        state_dir=args.state_dir,
        snapshot_every=args.snapshot_every,
    )

    def _on_ready(daemon: "PlanningDaemon") -> None:
        address = daemon.address
        payload: dict = {"event": "ready", "pid": os.getpid()}
        if address is not None and address[0] == "unix":
            payload["path"] = address[1]
        elif address is not None:
            payload["host"], payload["port"] = address[1], address[2]
        print(json.dumps(payload), flush=True)

    daemon = PlanningDaemon(
        config, default_catalog=views, on_ready=_on_ready
    )
    try:
        faults = tuple(fault_from_spec(spec) for spec in args.chaos or ())
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if faults:
        with inject(*faults):
            code = asyncio.run(daemon.run())
    else:
        code = asyncio.run(daemon.run())
    print(
        json.dumps(
            {
                "event": "drained",
                "exit_code": code,
                "report": daemon.drain_report,
                "cache_entries": daemon.cache_entries_flushed,
                "checkpoint": daemon.final_checkpoint,
                "durability": daemon.catalogs.durability_stats(),
            }
        ),
        flush=True,
    )
    return code


def _cmd_serve_send(args: argparse.Namespace) -> int:
    """Send NDJSON frames to a running daemon; batch-style exit codes."""
    from .errors import ParseError
    from .serve.client import RetryBackoff, ServeClient
    from .serve.protocol import error_from_payload

    retry_codes: frozenset[int] = frozenset()
    if args.retry_on:
        try:
            retry_codes = frozenset(
                int(part) for part in args.retry_on.split(",") if part.strip()
            )
        except ValueError:
            raise ParseError(
                f"--retry-on {args.retry_on!r} must be comma-separated "
                "exit codes (e.g. 78,79)"
            ) from None
    backoff = RetryBackoff(base=args.retry_base)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.requests).read_text().splitlines()
    counts = {"ok": 0, "degraded": 0, "failed": 0, "error": 0, "control": 0}
    retries_total = 0
    last_error: ReproError | None = None
    with ServeClient(
        args.host,
        args.port,
        unix_socket=args.unix_socket,
        timeout=args.client_timeout,
    ) as client:
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"request line {number}: invalid JSON: {exc}"
                ) from None
            if retry_codes:
                response, retries = client.request_with_retry(
                    payload,
                    retry_on=retry_codes,
                    max_retries=args.retry_max,
                    backoff=backoff,
                )
                retries_total += retries
            else:
                response = client.request(payload)
            status = str(response.get("status", ""))
            if args.format == "json":
                print(json.dumps(response))
            else:
                print(f"{response.get('id')}: {status or 'response'}")
            # Classify by what we *sent*, not just the status string: a
            # healthz/stats answer echoes the daemon's ladder rung
            # ("degraded", "draining", ...), which must not pollute the
            # plan-outcome counters.
            is_plan = str(payload.get("type", "plan")) == "plan"
            if status == "error":
                counts["error"] += 1
                error = response.get("error")
                if isinstance(error, dict):
                    last_error = error_from_payload(error)
            elif is_plan and status in ("ok", "degraded", "failed"):
                counts[status] += 1
            else:
                counts["control"] += 1
    summary = (
        f"serve send: {counts['ok']} ok, {counts['degraded']} degraded, "
        f"{counts['failed']} failed, {counts['error']} error, "
        f"{counts['control']} control"
    )
    if retries_total:
        summary += f", {retries_total} retried"
    print(summary, file=sys.stderr)
    if last_error is not None:
        # Mirror batch semantics: all responses were printed; the exit
        # status reflects the *final* failure through the taxonomy
        # handler (e.g. 78 when the daemon shed the last request, 79
        # when it was draining).
        raise last_error
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Introspection of the fault-injection registry."""
    from .testing.faults import describe_injection_points

    pairs = describe_injection_points()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "injection_points": [
                        {"point": point, "description": description}
                        for point, description in pairs
                    ]
                },
                indent=2,
            )
        )
    else:
        width = max(len(point) for point, _ in pairs)
        for point, description in pairs:
            print(f"{point:<{width}}  {description}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import figures

    forwarded = [args.figure]
    if args.full:
        forwarded.append("--full")
    if args.queries:
        forwarded.extend(["--queries", str(args.queries)])
    if args.csv:
        forwarded.extend(["--csv", args.csv])
    return figures.main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Generating Efficient Plans for Queries Using Views "
            "(Li/Afrati/Ullman, SIGMOD 2001) - reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_rewrite_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("query", help="datalog rule or @file")
        command.add_argument(
            "--views", required=True, help="datalog program file"
        )
        command.add_argument(
            "--backend", default="corecover", metavar="NAME",
            help="rewriter backend (see repro.planner.available_backends())",
        )
        command.add_argument("--limit", type=int, default=64,
                             help="cap on enumerated rewritings")
        command.add_argument(
            "--verbose", action="store_true",
            help="print tuple-cores, cache and timing statistics",
        )
        command.add_argument(
            "--sql-schema", metavar="JSON", default=None,
            help="treat the query as SQL, with this table->columns "
                 "schema file",
        )
        command.add_argument(
            "--certify", action="store_true",
            help="re-verify the result from first principles "
                 "(exit 3 on failure)",
        )
        command.add_argument(
            "--preflight", action="store_true",
            help="run the repro.analysis lint rules before planning; "
                 "error-severity findings abort with exit 73",
        )
        command.add_argument(
            "--profile", action="store_true",
            help="print the phase-level profile (parse through "
                 "cost ranking) before the results",
        )
        _add_budget_flags(command)
        command.set_defaults(func=_cmd_rewrite)

    rewrite = sub.add_parser("rewrite", help="generate equivalent rewritings")
    _add_rewrite_arguments(rewrite)

    plan_cmd = sub.add_parser(
        "plan", help="alias of 'rewrite' (generate equivalent rewritings)"
    )
    _add_rewrite_arguments(plan_cmd)

    optimize = sub.add_parser(
        "optimize", help="pick a cost-optimal rewriting and plan"
    )
    optimize.add_argument("query", help="datalog rule or @file")
    optimize.add_argument("--views", required=True)
    optimize.add_argument("--data", required=True,
                          help="JSON file: relation -> list of rows")
    optimize.add_argument(
        "--cost-model", default="m2", metavar="NAME",
        help="cost model (see repro.cost.available_cost_models())",
    )
    optimize.add_argument(
        "--annotator", choices=["supplementary", "heuristic"],
        default="heuristic", help="M3 attribute-drop strategy",
    )
    optimize.add_argument("--filters", action="store_true",
                          help="try adding filtering subgoals (M2)")
    optimize.add_argument("--limit", type=int, default=32)
    optimize.add_argument("--verbose", action="store_true",
                          help="print cache and timing statistics")
    optimize.add_argument("--sql-schema", metavar="JSON", default=None,
                          help="treat the query as SQL with this schema file")
    optimize.add_argument("--explain", action="store_true",
                          help="print an EXPLAIN-style step table")
    optimize.add_argument(
        "--preflight", action="store_true",
        help="run the repro.analysis lint rules before planning; "
             "error-severity findings abort with exit 73",
    )
    _add_budget_flags(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    certain = sub.add_parser(
        "certain",
        help="certain answers from a view instance (inverse rules)",
    )
    certain.add_argument("query", help="datalog rule or @file")
    certain.add_argument("--views", required=True)
    certain.add_argument("--view-data", required=True,
                         help="JSON file: view relation -> list of rows")
    certain.add_argument("--sql-schema", metavar="JSON", default=None)
    certain.set_defaults(func=_cmd_certain)

    lint = sub.add_parser(
        "lint",
        help="static analysis of a query, view catalog, and planner config",
    )
    lint.add_argument("query", help="datalog rule or @file")
    lint.add_argument("--views", default=None, help="datalog program file")
    lint.add_argument(
        "--schema", metavar="JSON", default=None,
        help="declared arities: JSON file mapping predicate -> arity "
             "(enables the R002 arity checks)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format: human-readable text or SARIF-shaped JSON",
    )
    lint.add_argument(
        "--select", action="append", metavar="CODES", default=None,
        help="run only these rule codes/prefixes (comma-separated, "
             "repeatable), e.g. --select R0 --select R103",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="CODES", default=None,
        help="skip these rule codes/prefixes (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--fail-on", choices=["error", "warning", "info", "never"],
        default="error",
        help="exit 73 when a diagnostic at or above this severity is "
             "emitted (default: error)",
    )
    lint.add_argument(
        "--backend", default=None, metavar="NAME",
        help="planner backend to validate the configuration against",
    )
    lint.add_argument(
        "--cost-model", default=None, metavar="NAME",
        help="cost model to validate the configuration against",
    )
    lint.add_argument(
        "--with-data", action="store_true",
        help="declare that a database/statistics catalog will be supplied "
             "(silences the R104 missing-data check)",
    )
    lint.add_argument("--sql-schema", metavar="JSON", default=None,
                      help="treat the query as SQL with this schema file")
    lint.set_defaults(func=_cmd_lint)

    audit = sub.add_parser(
        "audit",
        help="whole-catalog static analysis of a view file (C1xx rules)",
    )
    audit.add_argument(
        "views", help="datalog program file (the view catalog to audit)"
    )
    audit.add_argument(
        "--schema", metavar="JSON", default=None,
        help="declared base relations: JSON file mapping predicate -> "
             "arity (enables the C105 unmentioned-relation checks)",
    )
    audit.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format: human-readable text or SARIF-shaped JSON",
    )
    audit.add_argument(
        "--select", action="append", metavar="CODES", default=None,
        help="run only these rule codes/prefixes (comma-separated, "
             "repeatable), e.g. --select C1 --select C103",
    )
    audit.add_argument(
        "--ignore", action="append", metavar="CODES", default=None,
        help="skip these rule codes/prefixes (comma-separated, repeatable)",
    )
    audit.add_argument(
        "--fail-on", choices=["error", "warning", "info", "never"],
        default="error",
        help="exit 73 when a diagnostic at or above this severity "
             "survives baseline suppression (default: error)",
    )
    audit.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="suppress findings whose content fingerprints this JSON "
             "baseline pins (gate on new findings only)",
    )
    audit.add_argument(
        "--update-baseline", action="store_true",
        help="regenerate --baseline FILE from the current findings "
             "and exit 0",
    )
    audit.set_defaults(func=_cmd_audit)

    batch = sub.add_parser(
        "batch",
        help="resilient NDJSON batch execution (retry, breakers, failover)",
    )
    batch.add_argument(
        "requests",
        help="NDJSON request file (one JSON object per line), or - for stdin",
    )
    batch.add_argument("--views", required=True, help="datalog program file")
    batch.add_argument(
        "--chain", default="corecover,bucket,naive", metavar="NAMES",
        help="comma-separated backend failover chain "
             "(default: corecover,bucket,naive)",
    )
    batch.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="planning attempts per backend before failing over",
    )
    batch.add_argument(
        "--retry-base-delay", type=float, default=0.05, metavar="SECONDS",
        help="first backoff ceiling; doubles per attempt with full jitter",
    )
    batch.add_argument(
        "--breaker-window", type=int, default=10, metavar="N",
        help="sliding outcome window per backend circuit breaker",
    )
    batch.add_argument(
        "--breaker-threshold", type=float, default=0.5, metavar="RATE",
        help="failure rate at which a breaker opens",
    )
    batch.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="seconds an open breaker waits before a half-open trial",
    )
    batch.add_argument(
        "--cache", metavar="DIR", default=None,
        help="crash-safe on-disk plan cache directory (checksummed, "
             "content-addressed entries)",
    )
    batch.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="entries older than this are stale: skipped on the normal "
             "path, served with degraded=true when all backends are down",
    )
    batch.add_argument(
        "--strict-cache", action="store_true",
        help="raise on cache corruption (exit 76) instead of treating "
             "corrupt entries as misses",
    )
    batch.add_argument(
        "--format", choices=["json", "text"], default="json",
        help="outcome rendering: NDJSON (default) or human-readable text",
    )
    batch.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes in the supervised worker pool "
             "(default 1 = in-process; 0 or less = one per CPU)",
    )
    batch.add_argument(
        "--task-grace", type=float, default=5.0, metavar="SECONDS",
        help="extra seconds past a request's deadline before its worker "
             "is declared dead (exit 77 outcome for that request)",
    )
    batch.add_argument(
        "--profile", action="store_true",
        help="attach a phase-level profile object to every outcome line",
    )
    _add_budget_flags(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="the resident planning daemon (run) and its client (send)",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run",
        help="run the supervised planning daemon until drained "
             "(SIGTERM or a drain message; clean drain exits 0)",
    )
    serve_run.add_argument(
        "--views", default=None,
        help="datalog program file used as the default catalog "
             "(tenants may also register named catalogs over the wire)",
    )
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port (0 = ephemeral; the bound port is announced in "
             "the ready line on stdout)",
    )
    serve_run.add_argument(
        "--unix-socket", metavar="PATH", default=None,
        help="listen on a Unix socket instead of TCP",
    )
    serve_run.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="supervised worker processes (heartbeat-monitored, "
             "restarted on crash/hang)",
    )
    serve_run.add_argument(
        "--pool-size", type=int, default=4, metavar="N",
        help="warm planner-context pool entries per worker",
    )
    serve_run.add_argument(
        "--max-queue-depth", type=int, default=64, metavar="N",
        help="bounded intake queue; beyond this requests shed with "
             "OverloadError (exit 78) and a retry_after hint",
    )
    serve_run.add_argument(
        "--tenant-rate", type=float, default=None, metavar="RPS",
        help="default per-tenant token-bucket rate (requests/second)",
    )
    serve_run.add_argument(
        "--tenant-burst", type=float, default=8.0, metavar="N",
        help="token-bucket burst size per tenant",
    )
    serve_run.add_argument(
        "--tenant-rate-override", action="append", metavar="NAME=RATE",
        default=None,
        help="per-tenant rate override (repeatable; 0 blocks the tenant)",
    )
    serve_run.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="SECONDS",
        help="worker heartbeat stamp/sweep cadence",
    )
    serve_run.add_argument(
        "--heartbeat-grace", type=float, default=2.0, metavar="SECONDS",
        help="a heartbeat older than this marks the worker hung",
    )
    serve_run.add_argument(
        "--recycle-after", type=int, default=None, metavar="N",
        help="retire each worker after serving N requests",
    )
    serve_run.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="retire a worker whose resident set crosses this size",
    )
    serve_run.add_argument(
        "--task-grace", type=float, default=5.0, metavar="SECONDS",
        help="extra seconds past a request's deadline before its worker "
             "is declared hung",
    )
    serve_run.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="timeout for requests without their own deadline",
    )
    serve_run.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="SECONDS",
        help="seconds a graceful drain may spend settling in-flight work "
             "before aborting the remainder with ShuttingDownError",
    )
    serve_run.add_argument(
        "--chain", default="corecover,bucket,naive", metavar="NAMES",
        help="comma-separated backend failover chain",
    )
    serve_run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="planning attempts per backend before failing over",
    )
    serve_run.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="seconds an open breaker waits before a half-open trial",
    )
    serve_run.add_argument(
        "--cache", metavar="DIR", default=None,
        help="shared crash-safe plan cache directory (flushed on drain)",
    )
    serve_run.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
    )
    serve_run.add_argument("--strict-cache", action="store_true")
    serve_run.add_argument(
        "--profile", action="store_true",
        help="attach phase profiles to outcomes and aggregate them "
             "in the stats message",
    )
    serve_run.add_argument(
        "--audit-fail-on", choices=["error", "warning", "info", "never"],
        default="never", metavar="SEVERITY",
        help="audit every catalog register/update (C1xx rules) and "
             "reject it with a structured AnalysisError (client exit 73) "
             "when findings reach this severity (default: never)",
    )
    serve_run.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable catalog state: a checksummed write-ahead journal "
             "plus compacted snapshots; named catalogs registered over "
             "the wire are recovered on the next start (root-verified; "
             "corrupt content is quarantined with exit 80)",
    )
    serve_run.add_argument(
        "--snapshot-every", type=int, default=64, metavar="N",
        help="journaled catalog operations between compacted snapshots "
             "(durable mode only)",
    )
    serve_run.add_argument(
        "--chaos", action="append", metavar="SPEC", default=None,
        help="deterministic fault injection, e.g. "
             "kill:worker_dispatch:after=10 or "
             "stall:serve_admission:seconds=0.2 (repeatable; "
             "chaos testing only)",
    )
    _add_budget_flags(serve_run)
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_send = serve_sub.add_parser(
        "send",
        help="send NDJSON frames to a running daemon "
             "(plan requests, catalog registration, healthz/stats/drain)",
    )
    serve_send.add_argument(
        "requests",
        help="NDJSON frame file (one JSON object per line), or - for stdin",
    )
    serve_send.add_argument("--host", default="127.0.0.1")
    serve_send.add_argument("--port", type=int, default=None, metavar="N")
    serve_send.add_argument(
        "--unix-socket", metavar="PATH", default=None,
    )
    serve_send.add_argument(
        "--client-timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket timeout per response",
    )
    serve_send.add_argument(
        "--format", choices=["json", "text"], default="json",
        help="response rendering: NDJSON (default) or one-line text",
    )
    serve_send.add_argument(
        "--retry-on", metavar="CODES", default=None,
        help="comma-separated error exit codes to retry with backoff, "
             "honoring the server's retry_after hint "
             "(e.g. 78,79 rides out load sheds and drains)",
    )
    serve_send.add_argument(
        "--retry-max", type=int, default=5, metavar="N",
        help="retries per request before giving up (default 5)",
    )
    serve_send.add_argument(
        "--retry-base", type=float, default=0.05, metavar="SECONDS",
        help="exponential backoff base used when no retry_after hint "
             "rides on the error (delay = base * 2^attempt, capped)",
    )
    serve_send.set_defaults(func=_cmd_serve_send)

    faults = sub.add_parser(
        "faults", help="fault-injection harness introspection"
    )
    faults.add_argument("action", choices=["list"],
                        help="'list' enumerates registered injection points")
    faults.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format",
    )
    faults.set_defaults(func=_cmd_faults)

    figures = sub.add_parser("figures", help="regenerate Section 7 figures")
    figures.add_argument("figure", help="fig6a..fig9b or 'all'")
    figures.add_argument("--full", action="store_true")
    figures.add_argument("--queries", type=int, default=None)
    figures.add_argument("--csv", metavar="DIR", default=None)
    figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Convenience: a query with --backend but no subcommand is a rewrite,
    # so `python -m repro "q(X) :- ..." --views v --backend b` works
    # directly.
    if (
        argv
        and argv[0] not in _SUBCOMMANDS
        and not argv[0].startswith("-")
        and "--backend" in argv
    ):
        argv = ["rewrite", *argv]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        # The taxonomy maps to distinct nonzero exit codes; stderr gets a
        # one-line machine-readable rendering.
        print(structured_error(error), file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
