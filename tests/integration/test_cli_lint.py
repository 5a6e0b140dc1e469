"""End-to-end tests for ``repro lint`` and ``rewrite --preflight``."""

import json

import pytest

from repro.cli import main
from repro.errors import AnalysisError

CLEAN = "q(X, Y) :- e(X, Z), e(Z, Y)"
UNSAFE = "q(X, Y) :- e(X, Z)"


@pytest.fixture()
def views_file(tmp_path):
    path = tmp_path / "views.dl"
    path.write_text(
        "v1(A, B) :- e(A, C), e(C, B)\n"
        "v2(A, B) :- e(A, B)\n"
    )
    return str(path)


class TestExitCodes:
    def test_clean_query_exits_zero(self, views_file, capsys):
        assert main(["lint", CLEAN, "--views", views_file]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_diagnostic_exits_73(self, capsys):
        code = main(["lint", UNSAFE])
        assert code == AnalysisError.exit_code == 73
        out = capsys.readouterr().out
        assert "R001" in out

    def test_fail_on_warning(self, capsys):
        # Cartesian body: a warning, not an error.
        assert main(["lint", "q(X, Y) :- e(X, X), f(Y, Y)"]) == 0
        code = main(
            ["lint", "q(X, Y) :- e(X, X), f(Y, Y)", "--fail-on", "warning"]
        )
        assert code == 73
        assert "R003" in capsys.readouterr().out

    def test_fail_on_never_reports_but_exits_zero(self, capsys):
        assert main(["lint", UNSAFE, "--fail-on", "never"]) == 0
        assert "R001" in capsys.readouterr().out


class TestSelections:
    def test_ignore_suppresses_the_code(self, capsys):
        assert main(["lint", UNSAFE, "--ignore", "R001"]) == 0
        assert "R001" not in capsys.readouterr().out

    def test_select_restricts_to_listed_codes(self, capsys):
        code = main(["lint", UNSAFE, "--select", "R003,R005"])
        assert code == 0
        assert "R001" not in capsys.readouterr().out

    def test_repeatable_flags(self, capsys):
        code = main(
            ["lint", UNSAFE, "--ignore", "R001", "--ignore", "R003"]
        )
        assert code == 0


class TestFormats:
    def test_json_output_is_sarif_shaped(self, views_file, capsys):
        main(["lint", UNSAFE, "--views", views_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "R001" for r in results)
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_text_output_carries_positions(self, capsys):
        main(["lint", UNSAFE])
        out = capsys.readouterr().out
        assert "line 1, column 1" in out  # position of the offending head


class TestInputs:
    def test_query_from_file(self, tmp_path, capsys):
        query_file = tmp_path / "query.dl"
        query_file.write_text(CLEAN + "\n")
        assert main(["lint", f"@{query_file}"]) == 0

    def test_schema_arity_check(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"e": 3}))
        code = main(["lint", CLEAN, "--schema", str(schema)])
        assert code == 73
        assert "R002" in capsys.readouterr().out

    def test_config_conflict_r104(self, views_file, capsys):
        code = main(
            ["lint", CLEAN, "--views", views_file, "--cost-model", "m2"]
        )
        assert code == 73
        assert "R104" in capsys.readouterr().out

    def test_config_with_data_resolves_conflict(self, views_file):
        assert main(
            ["lint", CLEAN, "--views", views_file,
             "--cost-model", "m2", "--with-data"]
        ) == 0


class TestRewritePreflight:
    def test_rejection_exits_73_with_diagnostics(self, views_file, capsys):
        code = main(["rewrite", UNSAFE, "--views", views_file, "--preflight"])
        assert code == 73
        captured = capsys.readouterr()
        assert "preflight rejected" in captured.out
        assert "R001" in captured.out

    def test_advisories_print_but_planning_proceeds(self, tmp_path, capsys):
        views = tmp_path / "views.dl"
        views.write_text(
            "v1(A, B) :- e(A, C), e(C, B)\n"
            "v3(A, B) :- e(A, M), e(M, B)\n"  # duplicate of v1
        )
        code = main(["rewrite", CLEAN, "--views", str(views), "--preflight"])
        assert code == 0
        captured = capsys.readouterr()
        assert "R101" in captured.err
        assert "v1" in captured.out  # rewriting was still produced

    def test_without_preflight_unsafe_query_is_not_rejected(self, views_file):
        # Pre-existing behaviour: the planner itself accepts unsafe
        # queries (several analyses construct them deliberately); only
        # --preflight turns R001 into a rejection.
        assert main(["rewrite", UNSAFE, "--views", views_file]) == 0
