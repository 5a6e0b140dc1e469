"""Drivers regenerating every figure of the paper's Section 7.

Each figure name maps to a sweep configuration; running a driver prints
the same series the paper plots:

* **fig6a / fig6b** — star queries: time to generate all GMRs vs. number
  of views (all variables distinguished / one nondistinguished).
* **fig7a / fig7b** — star queries: number of view equivalence classes;
  number of view tuples vs. representative view-tuple classes.
* **fig8a / fig8b** — chain queries: time vs. number of views.
* **fig9a / fig9b** — chain queries: equivalence-class counts.

Usage::

    python -m repro.experiments.figures fig6a
    python -m repro.experiments.figures all --full   # paper-scale axis
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .harness import SweepConfig, SweepPoint, format_points, run_sweep, write_csv

#: Paper-scale x-axis (Figures 6-9 run 100..1000 views).
FULL_VIEW_COUNTS = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
#: Abbreviated axis for tests/benchmarks.
QUICK_VIEW_COUNTS = (50, 100, 200, 400)

#: The pool sizes are unpublished knobs of the paper's generator; these
#: values make the class-count curves saturate in the paper's range (see
#: EXPERIMENTS.md).
STAR_RELATIONS = 13
CHAIN_RELATIONS = 40

FIGURES: dict[str, dict] = {
    "fig6a": {"shape": "star", "num_relations": STAR_RELATIONS,
              "nondistinguished": 0, "metric": "time",
              "caption": "star, all distinguished: time for all GMRs"},
    "fig6b": {"shape": "star", "num_relations": STAR_RELATIONS,
              "nondistinguished": 1, "metric": "time",
              "caption": "star, 1 nondistinguished: time for all GMRs"},
    "fig7a": {"shape": "star", "num_relations": STAR_RELATIONS,
              "nondistinguished": 0, "metric": "view_classes",
              "caption": "star: number of view equivalence classes"},
    "fig7b": {"shape": "star", "num_relations": STAR_RELATIONS,
              "nondistinguished": 0, "metric": "tuple_classes",
              "caption": "star: view tuples vs. representative classes"},
    "fig8a": {"shape": "chain", "num_relations": CHAIN_RELATIONS,
              "nondistinguished": 0, "metric": "time",
              "caption": "chain, all distinguished: time for all GMRs"},
    "fig8b": {"shape": "chain", "num_relations": CHAIN_RELATIONS,
              "nondistinguished": 1, "metric": "time",
              "caption": "chain, 1 nondistinguished: time for all GMRs"},
    "fig9a": {"shape": "chain", "num_relations": CHAIN_RELATIONS,
              "nondistinguished": 0, "metric": "view_classes",
              "caption": "chain: number of view equivalence classes"},
    "fig9b": {"shape": "chain", "num_relations": CHAIN_RELATIONS,
              "nondistinguished": 0, "metric": "tuple_classes",
              "caption": "chain: view tuples vs. representative classes"},
}


def sweep_config_for(
    figure: str,
    view_counts: Sequence[int] | None = None,
    queries_per_point: int = 40,
    seed: int = 1,
) -> SweepConfig:
    """The sweep configuration behind a figure name."""
    try:
        spec = FIGURES[figure]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown figure {figure!r}; known: {known}") from None
    return SweepConfig(
        shape=spec["shape"],
        num_relations=spec["num_relations"],
        nondistinguished=spec["nondistinguished"],
        view_counts=tuple(view_counts or QUICK_VIEW_COUNTS),
        queries_per_point=queries_per_point,
        seed=seed,
    )


def run_figure(
    figure: str,
    view_counts: Sequence[int] | None = None,
    queries_per_point: int = 40,
    seed: int = 1,
) -> list[SweepPoint]:
    """Run the sweep behind one figure and return its points."""
    return run_sweep(
        sweep_config_for(figure, view_counts, queries_per_point, seed)
    )


def print_figure(points: Sequence[SweepPoint], figure: str) -> None:
    """Print one figure's series in the same terms the paper plots."""
    spec = FIGURES[figure]
    print(f"== {figure}: {spec['caption']} ==")
    metric = spec["metric"]
    if metric == "time":
        print(f"{'views':>6} {'mean time (ms)':>15} {'max time (ms)':>14}")
        for p in points:
            print(f"{p.num_views:>6} {p.mean_time_ms:>15.1f} {p.max_time_ms:>14.1f}")
    elif metric == "view_classes":
        print(f"{'views':>6} {'view equivalence classes':>25}")
        for p in points:
            print(f"{p.num_views:>6} {p.mean_view_classes:>25.1f}")
    else:  # tuple_classes
        print(
            f"{'views':>6} {'view tuples':>12} {'tuple classes':>14} "
            f"{'maximal classes':>16}"
        )
        for p in points:
            print(
                f"{p.num_views:>6} {p.mean_total_view_tuples:>12.1f} "
                f"{p.mean_view_tuple_classes:>14.1f} "
                f"{p.mean_maximal_tuple_classes:>16.1f}"
            )
    print()
    print(format_points(points))
    print()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: regenerate one figure or all of them."""
    parser = argparse.ArgumentParser(
        description="Reproduce the Section 7 figures of Li/Afrati/Ullman 2001."
    )
    parser.add_argument(
        "figure",
        help="figure id (fig6a, fig6b, fig7a, fig7b, fig8a, fig8b, "
        "fig9a, fig9b) or 'all'",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper's 100..1000 view axis (slower)",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="queries averaged per point (paper: 40; quick default: 10)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write <figure>.csv files into this directory",
    )
    args = parser.parse_args(argv)

    view_counts = FULL_VIEW_COUNTS if args.full else QUICK_VIEW_COUNTS
    queries = args.queries if args.queries else (40 if args.full else 10)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        points = run_figure(name, view_counts, queries, args.seed)
        print_figure(points, name)
        if args.csv:
            import os

            os.makedirs(args.csv, exist_ok=True)
            write_csv(points, os.path.join(args.csv, f"{name}.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
