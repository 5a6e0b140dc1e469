"""Positive and negative tests for the semantic/config rules R101-R104.

R101 and R102 are validated against ground truth computed directly with
the planner's own machinery (containment on marker-renamed definitions,
``view_tuples`` over the canonical database) rather than against
hand-written expectations alone.
"""

from repro.analysis import PlannerConfig, Severity, analyze
from repro.analysis.semantic import _marker_definition
from repro.core.view_tuples import view_tuples
from repro.datalog import parse_program, parse_query
from repro.planner import PlannerContext
from repro.views import ViewCatalog


def codes(report):
    return {diagnostic.code for diagnostic in report}


def diags(report, code):
    return [d for d in report if d.code == code]


class TestRedundantViewR101:
    def test_positive_flags_later_duplicate(self):
        query = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)")
        views = ViewCatalog(parse_program(
            "v1(A, B) :- e(A, C), e(C, B)\n"
            "v2(X, Y) :- e(X, M), e(M, Y)\n"
        ))
        report = analyze(query, views)
        (finding,) = diags(report, "R101")
        assert finding.subject == "view:v2"
        assert "'v1'" in finding.message

    def test_ground_truth_containment(self):
        # Every flagged pair must actually be containment-equivalent
        # under the planner's own containment test.
        query = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)")
        views = ViewCatalog(parse_program(
            "v1(A, B) :- e(A, C), e(C, B)\n"
            "v2(X, Y) :- e(X, M), e(M, Y)\n"
            "v3(A, B) :- e(A, B)\n"
        ))
        context = PlannerContext()
        report = analyze(query, views, context=context)
        flagged = {d.subject.removeprefix("view:") for d in diags(report, "R101")}
        assert flagged == {"v2"}
        by_name = {view.name: view for view in views}
        assert context.is_equivalent_to(
            _marker_definition(by_name["v2"]), _marker_definition(by_name["v1"])
        )
        assert not context.is_equivalent_to(
            _marker_definition(by_name["v3"]), _marker_definition(by_name["v1"])
        )

    def test_flags_a_copy_with_a_redundant_atom(self):
        # v2 minimizes to v1; R101 groups exactly as the planner does.
        query = parse_query("q(X) :- r(X, Y)")
        views = ViewCatalog(parse_program(
            "v1(X) :- r(X, Y)\n"
            "v2(X) :- r(X, Y), r(X, Z)\n"
            "v3(A) :- r(A, B)\n"
        ))
        flagged = [d.subject for d in diags(analyze(query, views), "R101")]
        assert flagged == ["view:v2", "view:v3"]

    def test_negative_inequivalent_views(self):
        query = parse_query("q(X) :- e(X, Y)")
        views = ViewCatalog(parse_program(
            "v1(A, B) :- e(A, B)\n"
            "v2(A) :- e(A, A)\n"
        ))
        assert "R101" not in codes(analyze(query, views))

    def test_same_signature_not_equivalent(self):
        # Same predicate multiset and head arity, different join shape.
        query = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)")
        views = ViewCatalog(parse_program(
            "v1(A, B) :- e(A, C), e(C, B)\n"
            "v2(A, B) :- e(A, B), e(B, B)\n"
        ))
        assert "R101" not in codes(analyze(query, views))


class TestEmptyViewTuplesR102:
    def test_positive_constant_clash(self):
        query = parse_query("q(X) :- p(X, a)")
        views = ViewCatalog(parse_program("v(X) :- p(X, b)"))
        report = analyze(query, views)
        (finding,) = diags(report, "R102")
        assert finding.subject == "view:v"
        assert finding.severity is Severity.WARNING

    def test_positive_predicate_not_in_query(self):
        query = parse_query("q(X) :- e(X, Y)")
        views = ViewCatalog(parse_program("v(A) :- f(A, A)"))
        assert "R102" in codes(analyze(query, views))

    def test_negative_usable_view(self):
        query = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)")
        views = ViewCatalog(parse_program("v(A, B) :- e(A, B)"))
        assert "R102" not in codes(analyze(query, views))

    def test_ground_truth_view_tuples(self):
        # R102 must agree exactly with T(Q, {V}) computed from scratch.
        query = parse_query("q(X) :- p(X, a), r(X, Y)")
        views = ViewCatalog(parse_program(
            "v1(X) :- p(X, b)\n"
            "v2(X, Y) :- r(X, Y)\n"
            "v3(X) :- p(X, a)\n"
        ))
        context = PlannerContext()
        report = analyze(query, views, context=context)
        flagged = {d.subject.removeprefix("view:") for d in diags(report, "R102")}
        minimized = context.minimize(query)
        canonical = context.canonical_database(minimized)
        for view in views:
            tuples = view_tuples(minimized, [view], canonical)
            assert (not tuples) == (view.name in flagged), view.name

    def test_skipped_for_unsafe_query(self):
        report = analyze(
            parse_query("q(X, Y) :- e(X, Z)"),
            ViewCatalog(parse_program("v(A, B) :- e(A, B)")),
        )
        assert "R102" not in codes(report)


class TestNonMinimalQueryR103:
    def test_positive_with_core_fix(self):
        query = parse_query("q(X) :- e(X, Y), e(X, Z)")
        context = PlannerContext()
        report = analyze(query, context=context)
        (finding,) = diags(report, "R103")
        assert finding.severity is Severity.INFO
        assert finding.fix == str(context.minimize(query))

    def test_negative_minimal(self):
        report = analyze(parse_query("q(X, Y) :- e(X, Z), e(Z, Y)"))
        assert "R103" not in codes(report)


class TestConfigConflictR104:
    def test_unknown_backend(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(backend="nope"),
        )
        findings = diags(report, "R104")
        assert findings and "nope" in findings[0].message

    def test_unknown_cost_model(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(cost_model="m9", has_database=True),
        )
        assert "R104" in codes(report)

    def test_non_rewriting_backend_with_cost_model(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(
                backend="inverse-rules", cost_model="m2", has_database=True
            ),
        )
        findings = diags(report, "R104")
        assert any("maximally-contained" in f.message for f in findings)
        assert any(f.severity is Severity.ERROR for f in findings)

    def test_m3_with_non_gsr_backend_is_a_warning(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(
                backend="minicon", cost_model="m3", has_database=True
            ),
        )
        findings = diags(report, "R104")
        assert findings and findings[0].severity is Severity.WARNING

    def test_data_model_without_data(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(backend="corecover", cost_model="m2"),
        )
        findings = diags(report, "R104")
        assert findings and findings[0].severity is Severity.ERROR
        assert "database" in findings[0].message

    def test_negative_consistent_config(self):
        report = analyze(
            parse_query("q(X) :- e(X, X)"),
            config=PlannerConfig(
                backend="corecover-star", cost_model="m3", has_database=True
            ),
        )
        assert "R104" not in codes(report)

    def test_negative_no_config(self):
        report = analyze(parse_query("q(X) :- e(X, X)"))
        assert "R104" not in codes(report)
