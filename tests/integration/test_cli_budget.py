"""CLI budget flags and taxonomy exit codes."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def clp(tmp_path):
    views = tmp_path / "views.dl"
    views.write_text(
        """
        v1(M, D, C) :- car(M, D), loc(D, C)
        v2(S, M, C) :- part(S, M, C)
        v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)
        """
    )
    query = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"
    data = tmp_path / "db.json"
    data.write_text(
        json.dumps(
            {
                "car": [["m1", "a"]],
                "loc": [["a", "c1"]],
                "part": [["s1", "m1", "c1"]],
            }
        )
    )
    return query, str(views), str(data)


class TestBudgetFlags:
    def test_zero_timeout_degrades_gracefully(self, clp, capsys):
        query, views, _data = clp
        code = main(["rewrite", query, "--views", views, "--timeout", "0.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "budget exhausted" in captured.out
        assert "deadline" in captured.out

    def test_generous_timeout_is_a_no_op(self, clp, capsys):
        query, views, _data = clp
        assert main(
            ["rewrite", query, "--views", views, "--timeout", "30"]
        ) == 0
        assert "v4(M, a, C, S)" in capsys.readouterr().out

    def test_max_hom_searches_trips(self, clp, capsys):
        query, views, _data = clp
        code = main(
            ["rewrite", query, "--views", views, "--max-hom-searches", "0"]
        )
        assert code == 1
        assert "budget exhausted" in capsys.readouterr().out

    def test_strict_budget_exits_69_with_structured_stderr(self, clp, capsys):
        query, views, _data = clp
        code = main(
            ["rewrite", query, "--views", views,
             "--timeout", "0.0", "--strict-budget"]
        )
        captured = capsys.readouterr()
        assert code == 69
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "BudgetExceededError"
        assert payload["exit_code"] == 69

    def test_optimize_accepts_budget_flags(self, clp, capsys):
        query, views, data = clp
        code = main(
            ["optimize", query, "--views", views, "--data", data,
             "--timeout", "0.0"]
        )
        assert code == 1
        assert "budget exhausted" in capsys.readouterr().out


class TestTaxonomyExitCodes:
    def test_syntax_error_exits_65(self, clp, capsys):
        _query, views, _data = clp
        code = main(["rewrite", "q(X :- e(X)", "--views", views])
        captured = capsys.readouterr()
        assert code == 65
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "ParseError"
        assert "column" in payload["message"]

    def test_unknown_backend_exits_70(self, clp, capsys):
        query, views, _data = clp
        code = main(
            ["rewrite", query, "--views", views, "--backend", "nope"]
        )
        captured = capsys.readouterr()
        assert code == 70
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "UnknownBackendError"

    def test_duplicate_view_exits_71(self, clp, capsys, tmp_path):
        query, _views, _data = clp
        dupes = tmp_path / "dupes.dl"
        dupes.write_text("v1(X) :- e(X)\nv1(Y) :- f(Y)\n")
        code = main(["rewrite", query, "--views", str(dupes)])
        captured = capsys.readouterr()
        assert code == 71
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "DuplicateViewError"
