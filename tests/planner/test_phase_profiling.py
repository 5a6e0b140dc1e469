"""Phase-level profiling: taxonomy mapping, profiler, and surfacing.

Covers the :mod:`repro.profiling` primitives with a fake clock, the
stage -> phase folding rules (``cost:*`` folds, ``rewrite:*`` drops),
and every surface the profile reaches: ``CoreCoverStats.phase_seconds``,
``PlanResult.phase_profile()``, the executor's ``--profile`` payload,
and the two CLI renderings.
"""

import json

import pytest

from repro.profiling import (
    CANONICAL_PHASES,
    PhaseProfile,
    PhaseProfiler,
    phase_for_stage,
    profile_from_stages,
)

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"
VIEWS = [
    "v1(A, B) :- a(A, B), a(B, B)",
    "v2(C, D) :- a(C, E), b(C, D)",
]


def _planner_stats():
    """``PlannerStats`` of one cold corecover ``plan()`` of QUERY."""
    from repro import ViewCatalog, parse_query
    from repro.planner.registry import plan

    return plan(parse_query(QUERY), ViewCatalog(VIEWS)).stats


class TestTaxonomy:
    def test_canonical_order_is_the_pipeline_order(self):
        assert CANONICAL_PHASES == (
            "parse",
            "preflight",
            "minimize",
            "grouping",
            "canonical_db",
            "view_tuples",
            "tuple_cores",
            "set_cover",
            "cost_ranking",
        )

    @pytest.mark.parametrize(
        "stage, phase",
        [
            ("preflight", "preflight"),
            ("minimize", "minimize"),
            ("grouping", "grouping"),
            ("canonical_db", "canonical_db"),
            ("view_tuples", "view_tuples"),
            ("tuple_cores", "tuple_cores"),
            ("cover", "set_cover"),
            ("cost:subgoals", "cost_ranking"),
            ("cost:oracle", "cost_ranking"),
        ],
    )
    def test_stage_mapping(self, stage, phase):
        assert phase_for_stage(stage) == phase

    @pytest.mark.parametrize(
        "stage", ["rewrite:corecover", "rewrite:bucket", "mystery"]
    )
    def test_envelopes_and_unknown_stages_are_dropped(self, stage):
        assert phase_for_stage(stage) is None


class TestProfiler:
    def test_phase_context_manager_uses_injected_clock(self):
        ticks = iter([1.0, 3.5, 10.0, 10.25])
        profiler = PhaseProfiler(clock=lambda: next(ticks))
        with profiler.phase("minimize"):
            pass
        with profiler.phase("minimize"):
            pass
        profile = profiler.snapshot()
        assert profile.seconds("minimize") == pytest.approx(2.75)
        assert profile.seconds("set_cover") == 0.0

    def test_unknown_phase_is_rejected(self):
        profiler = PhaseProfiler()
        with pytest.raises(ValueError, match="unknown phase"):
            profiler.record("rewrite:corecover", 1.0)
        with pytest.raises(ValueError, match="unknown phase"):
            with profiler.phase("warmup"):
                pass  # pragma: no cover - never entered

    def test_profile_shape_is_stable_and_total_sums(self):
        profiler = PhaseProfiler()
        profiler.record("parse", 0.25)
        profiler.record("set_cover", 0.75)
        profile = profiler.snapshot()
        assert [name for name, _ in profile.phases] == list(CANONICAL_PHASES)
        assert profile.total_seconds == pytest.approx(1.0)
        fractions = profile.fractions()
        assert fractions["parse"] == pytest.approx(0.25)
        assert fractions["set_cover"] == pytest.approx(0.75)
        assert fractions["minimize"] == 0.0

    def test_empty_profile_has_zero_fractions(self):
        profile = PhaseProfiler().snapshot()
        assert profile.total_seconds == 0.0
        assert set(profile.fractions().values()) == {0.0}

    def test_merged_sums_phase_wise(self):
        left = PhaseProfiler()
        left.record("minimize", 1.0)
        right = PhaseProfiler()
        right.record("minimize", 0.5)
        right.record("cost_ranking", 2.0)
        merged = left.snapshot().merged(right.snapshot())
        assert merged.seconds("minimize") == pytest.approx(1.5)
        assert merged.seconds("cost_ranking") == pytest.approx(2.0)

    def test_from_stages_folds_and_drops(self):
        profile = profile_from_stages(
            [
                ("rewrite:corecover", 9.0),  # envelope: dropped
                ("minimize", 0.5),
                ("cover", 0.25),
                ("cost:subgoals", 0.125),
                ("cost:oracle", 0.125),
            ],
            parse_seconds=1.0,
        )
        assert profile.seconds("parse") == pytest.approx(1.0)
        assert profile.seconds("minimize") == pytest.approx(0.5)
        assert profile.seconds("set_cover") == pytest.approx(0.25)
        assert profile.seconds("cost_ranking") == pytest.approx(0.25)
        assert profile.total_seconds == pytest.approx(2.0)

    def test_json_payload_shape(self):
        profile = PhaseProfile(
            tuple(
                (name, 0.5 if name == "minimize" else 0.0)
                for name in CANONICAL_PHASES
            )
        )
        payload = profile.to_json()
        assert payload["total_seconds"] == 0.5
        assert payload["phase_seconds"]["minimize"] == 0.5
        assert payload["fractions"]["minimize"] == 1.0
        assert set(payload["phase_seconds"]) == set(CANONICAL_PHASES)

    def test_render_text_is_one_row_per_phase(self):
        text = PhaseProfiler().snapshot().render_text()
        lines = text.splitlines()
        assert lines[0].startswith("phase profile (total")
        assert len(lines) == 1 + len(CANONICAL_PHASES)


class TestPlannerSurfaces:
    def test_corecover_stats_carry_phase_seconds(self):
        from repro import ViewCatalog, parse_query
        from repro.core.corecover import core_cover

        result = core_cover(parse_query(QUERY), ViewCatalog(VIEWS))
        phases = dict(result.stats.phase_seconds)
        assert set(phases) == set(CANONICAL_PHASES)
        # The pipeline phases that always run must have been timed.
        for name in ("minimize", "canonical_db", "view_tuples",
                     "tuple_cores", "set_cover"):
            assert phases[name] > 0.0, name

    def test_plan_result_phase_profile(self):
        from repro import ViewCatalog, parse_query
        from repro.planner.registry import plan

        result = plan(
            parse_query(QUERY),
            ViewCatalog(VIEWS),
            backend="corecover",
            cost_model="m1",
        )
        profile = result.phase_profile(parse_seconds=0.125)
        assert profile.seconds("parse") == pytest.approx(0.125)
        assert profile.seconds("set_cover") > 0.0
        # the cost:m1 ranking stage folds into cost_ranking
        assert profile.seconds("cost_ranking") > 0.0

    def test_executor_attaches_profile_only_when_enabled(self):
        from repro import ViewCatalog, parse_query
        from repro.service import (
            PlanRequest,
            ResilientExecutor,
            ServicePolicy,
        )

        request = PlanRequest(
            query=parse_query(QUERY),
            views=ViewCatalog(VIEWS),
            parse_seconds=0.5,
        )
        policy = ServicePolicy(chain=("corecover",))
        plain = ResilientExecutor(policy).execute(request)
        assert plain.profile is None
        assert "profile" not in plain.to_json()

        profiled = ResilientExecutor(policy, profile=True).execute(request)
        assert profiled.profile is not None
        payload = profiled.to_json()["profile"]
        assert payload["phase_seconds"]["parse"] == 0.5
        assert payload["phase_seconds"]["set_cover"] > 0.0
        # Search-effort counters ride along with the phase timings and
        # match the planner's own stats for the same (deterministic) run.
        stats = _planner_stats()
        assert stats.hom_searches > 0 and stats.hom_nodes > 0
        assert payload["search"] == {
            "hom_searches": stats.hom_searches,
            "hom_nodes": stats.hom_nodes,
        }


class TestCliSurfaces:
    def test_plan_profile_renders_table(self, tmp_path, capsys):
        from repro.cli import main

        views = tmp_path / "views.dl"
        views.write_text("\n".join(VIEWS) + "\n")
        code = main(
            ["plan", QUERY, "--views", str(views), "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "phase profile (total" in out
        assert "set_cover" in out

    def test_batch_profile_attaches_json_payload(self, tmp_path, capsys):
        from repro.cli import main

        views = tmp_path / "views.dl"
        views.write_text("\n".join(VIEWS) + "\n")
        requests = tmp_path / "requests.ndjson"
        requests.write_text(json.dumps({"id": "p1", "query": QUERY}) + "\n")
        code = main(
            [
                "batch", str(requests), "--views", str(views),
                "--chain", "corecover", "--format", "json", "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        profile = payload["profile"]
        assert set(profile["phase_seconds"]) == set(CANONICAL_PHASES)
        assert profile["phase_seconds"]["parse"] > 0.0
        assert profile["total_seconds"] > 0.0
        stats = _planner_stats()
        assert profile["search"] == {
            "hom_searches": stats.hom_searches,
            "hom_nodes": stats.hom_nodes,
        }

        # Without --profile the key is absent (default JSON unchanged).
        main(
            [
                "batch", str(requests), "--views", str(views),
                "--chain", "corecover", "--format", "json",
            ]
        )
        bare = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "profile" not in bare
