"""Acceptance: lint emits zero false-positive *errors* on the paper's examples.

Every Section 3-7 example workload in :mod:`repro.experiments.paper_examples`
is a well-formed query/view set the paper plans successfully, so any
error-severity diagnostic on them would be a false positive.  Advisory
findings are allowed only where they state a true fact (car-loc-part's
``v5`` really is a copy of ``v1``).
"""

import pytest

from repro.analysis import analyze
from repro.experiments import paper_examples
from repro.planner import PlannerContext

EXAMPLES = ["car_loc_part", "example_41", "example_42", "example_61",
            "gmr_not_cmr"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_no_false_positive_errors(name):
    example = getattr(paper_examples, name)()
    report = analyze(example.query, example.views)
    assert report.ok, (
        f"{name}: lint raised error diagnostics on a paper example: "
        f"{[str(d) for d in report.errors]}"
    )


def test_car_loc_part_flags_only_the_true_duplicate():
    example = paper_examples.car_loc_part()
    context = PlannerContext()
    report = analyze(example.query, example.views, context=context)
    assert [d.code for d in report] == ["R101"]
    (finding,) = report.diagnostics
    assert finding.subject == "view:v5"
    # Ground truth: v5's definition is exactly v1's up to renaming.
    from repro.analysis.semantic import _marker_definition

    by_name = {view.name: view for view in example.views}
    assert context.is_equivalent_to(
        _marker_definition(by_name["v5"]), _marker_definition(by_name["v1"])
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_examples_clean_under_planning_config(name):
    example = getattr(paper_examples, name)()
    from repro.analysis import PlannerConfig

    report = analyze(
        example.query,
        example.views,
        config=PlannerConfig(
            backend="corecover-star", cost_model="m1", has_database=False
        ),
    )
    assert report.ok, [str(d) for d in report.errors]
