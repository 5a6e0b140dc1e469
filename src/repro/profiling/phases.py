"""Monotonic phase timers and the canonical phase taxonomy.

The planner already accumulates wall time per raw *stage* on its
:class:`~repro.planner.context.PlannerContext` (``ctx.stage(...)``); this
module maps those stage names onto a small, stable **phase taxonomy** —

    parse -> preflight -> minimize -> grouping -> canonical_db ->
    view_tuples -> tuple_cores -> set_cover -> cost_ranking

— that survives backend renames and is what ``repro plan --profile``,
``repro batch --profile`` outcome lines, ``CoreCoverStats.phase_seconds``
and ``BENCH_corecover.json`` report.

Stage-name mapping rules:

* pipeline stages map one-to-one (``cover`` -> ``set_cover``);
* every ``cost:<model>`` stage folds into ``cost_ranking``;
* ``rewrite:<backend>`` is the *envelope* around the per-phase stages and
  is dropped — counting it would double-book every phase inside it;
* ``parse`` never appears as a context stage (parsing happens before a
  context exists) and is supplied by the caller as ``parse_seconds``.

Timers use an injectable monotonic clock (``time.perf_counter`` by
default) so tests drive them deterministically.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "CANONICAL_PHASES",
    "PhaseProfile",
    "PhaseProfiler",
    "phase_for_stage",
    "profile_from_stages",
]

#: The canonical pipeline phases, in execution order.
CANONICAL_PHASES: tuple[str, ...] = (
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

#: Raw context stage name -> canonical phase (exact matches).
_STAGE_TO_PHASE: dict[str, str] = {
    "preflight": "preflight",
    "minimize": "minimize",
    "grouping": "grouping",
    "canonical_db": "canonical_db",
    "view_tuples": "view_tuples",
    "tuple_cores": "tuple_cores",
    "cover": "set_cover",
}


def phase_for_stage(stage: str) -> str | None:
    """The canonical phase a raw stage belongs to, or ``None`` to drop it."""
    mapped = _STAGE_TO_PHASE.get(stage)
    if mapped is not None:
        return mapped
    if stage.startswith("cost:"):
        return "cost_ranking"
    # "rewrite:<backend>" (and anything unrecognised) is an envelope, not
    # a phase of its own.
    return None


@dataclass(frozen=True)
class PhaseProfile:
    """Seconds per canonical phase, always in taxonomy order.

    Every canonical phase is present (zero when it did not run), so
    consumers — the CLI table, batch JSON, the bench dump — see a stable
    shape regardless of which backend produced the numbers.
    """

    phases: tuple[tuple[str, float], ...]

    @property
    def total_seconds(self) -> float:
        """Total profiled time across all phases."""
        return sum(seconds for _, seconds in self.phases)

    def seconds(self, phase: str) -> float:
        """Seconds spent in *phase* (0.0 when it did not run)."""
        return dict(self.phases).get(phase, 0.0)

    def fractions(self) -> dict[str, float]:
        """Each phase's share of the total (all zero for an empty profile)."""
        total = self.total_seconds
        if total <= 0.0:
            return {name: 0.0 for name, _ in self.phases}
        return {name: seconds / total for name, seconds in self.phases}

    def merged(self, other: "PhaseProfile") -> "PhaseProfile":
        """Phase-wise sum of two profiles (aggregation across requests)."""
        mine = dict(self.phases)
        theirs = dict(other.phases)
        return PhaseProfile(
            tuple(
                (name, mine.get(name, 0.0) + theirs.get(name, 0.0))
                for name in CANONICAL_PHASES
            )
        )

    def to_json(self) -> dict:
        """The JSON object attached to ``--profile`` outcome lines."""
        return {
            "phase_seconds": {
                name: round(seconds, 6) for name, seconds in self.phases
            },
            "total_seconds": round(self.total_seconds, 6),
            "fractions": {
                name: round(fraction, 4)
                for name, fraction in self.fractions().items()
            },
        }

    def render_text(self) -> str:
        """An aligned human-readable table (``repro plan --profile``)."""
        total = self.total_seconds
        lines = [f"phase profile (total {total * 1000:.1f} ms):"]
        fractions = self.fractions()
        for name, seconds in self.phases:
            lines.append(
                f"    {name:<12} {seconds * 1000:>9.2f} ms"
                f"  {fractions[name]:>6.1%}"
            )
        return "\n".join(lines)


class PhaseProfiler:
    """Accumulates monotonic wall time per canonical phase."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self._seconds: dict[str, float] = {}

    def record(self, phase: str, seconds: float) -> None:
        """Add *seconds* to *phase* (which must be canonical)."""
        if phase not in CANONICAL_PHASES:
            raise ValueError(
                f"unknown phase {phase!r}; known: "
                f"{', '.join(CANONICAL_PHASES)}"
            )
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the block under canonical phase *name*."""
        if name not in CANONICAL_PHASES:
            raise ValueError(
                f"unknown phase {name!r}; known: "
                f"{', '.join(CANONICAL_PHASES)}"
            )
        started = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - started
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed

    def snapshot(self) -> PhaseProfile:
        """An immutable profile of everything recorded so far."""
        return PhaseProfile(
            tuple(
                (name, self._seconds.get(name, 0.0))
                for name in CANONICAL_PHASES
            )
        )


def profile_from_stages(
    stages: Iterable[tuple[str, float]],
    *,
    parse_seconds: float = 0.0,
) -> PhaseProfile:
    """Fold raw ``(stage, seconds)`` pairs into a :class:`PhaseProfile`.

    *stages* is typically ``PlannerStats.stages`` (a per-run delta);
    *parse_seconds* supplies the pre-context parse phase.
    """
    profiler = PhaseProfiler()
    if parse_seconds:
        profiler.record("parse", parse_seconds)
    for stage, seconds in stages:
        phase = phase_for_stage(stage)
        if phase is not None:
            profiler.record(phase, seconds)
    return profiler.snapshot()
