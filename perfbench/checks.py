"""Output checks: the generator's filter, the per-operation digest check
and the certification that runs outside the timed region."""

from __future__ import annotations

import dataclasses
import json
import random

from common import HERE, rewriting_digest


def is_rewritable(query_text, view_texts) -> bool:
    """The generator's filter: keep a query only if CoreCover rewrites it."""
    from repro import ViewCatalog, parse_query, plan

    return bool(plan(parse_query(query_text), ViewCatalog(list(view_texts))).rewritings)


def expected_path(workload: str):
    return HERE / "expected" / f"{workload}.json"


def load_expected(workload: str, seed: int) -> dict | None:
    """The committed expectation for *seed*: input hash and digests."""
    path = expected_path(workload)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data if data.get("seed") == seed else None


def write_expected(workload: str, seed: int, input_sha: str, digests: dict) -> None:
    path = expected_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"seed": seed, "input_sha256": input_sha, "digests": digests}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


class OutputCheck:
    """Compares every operation's output digest with the expected one.

    With committed digests for the seed, those are the expectation and
    the generated inputs must hash as committed; otherwise the first
    output of each query is the expectation, and :meth:`certify` checks
    a sample of them after timing.  A mismatch counts as a failed
    operation; anything else found goes to :attr:`issues`.
    """

    def __init__(self, workload: str, seed: int, input_sha: str) -> None:
        committed = load_expected(workload, seed)
        self.committed = committed is not None
        self.expected = dict(committed["digests"]) if committed else {}
        self.first_outputs: dict = {}
        self.issues: list[str] = []
        if committed and committed["input_sha256"] != input_sha:
            self.issues.append("generated inputs differ from the committed ones")

    def check(self, key: str, digest: str, output) -> bool:
        if key not in self.expected:
            if self.committed:
                return False
            self.expected[key] = digest
            self.first_outputs[key] = output
        return self.expected[key] == digest

    def certify(self, instances, catalog_of, seed: int) -> None:
        """Without committed digests, certify a seeded sample of outputs."""
        if not self.committed:
            self.issues.extend(
                certify_sample(instances, self.first_outputs, catalog_of, seed)
            )


def certify_output(query_text, catalog, observed_texts, rng: random.Random,
                   sample: int = 5) -> list[str]:
    """Issues found in one observed output; empty when it checks out.

    The observed rewritings must equal what a plain ``plan()`` call on
    the same catalog returns, and a seeded sample of them must pass
    ``repro.core.certify.certify`` (equivalent, safe, views only).
    """
    from repro import parse_query, plan
    from repro.core.certify import certify

    result = plan(parse_query(query_text), catalog)
    issues = []
    if rewriting_digest(str(r) for r in result.rewritings) != rewriting_digest(
        observed_texts
    ):
        issues.append(f"output differs from plan() for {query_text}")
    chosen = rng.sample(sorted(observed_texts), min(sample, len(observed_texts)))
    sampled = dataclasses.replace(
        result.details, rewritings=tuple(parse_query(text) for text in chosen)
    )
    issues.extend(certify(sampled, catalog).issues)
    return issues


def certify_sample(instances, first_outputs, catalog_of, seed: int) -> list[str]:
    """Certify the first output of one seeded star and one chain query.

    *first_outputs* maps an instance label to its observed rewriting
    texts; *catalog_of* gives the catalog an instance was planned on.
    The sample is drawn from the queries that produced an output: a
    window without a sample floor (the traced run's) may end before it
    reaches every query.
    """
    rng = random.Random(seed)
    issues = []
    for shape in ("star", "chain"):
        observed = [
            i for i in instances if i.shape == shape and i.label in first_outputs
        ]
        if not observed:
            issues.append(f"no successful {shape} output to certify")
            continue
        instance = rng.choice(observed)
        issues.extend(
            certify_output(
                instance.query, catalog_of(instance), first_outputs[instance.label], rng
            )
        )
    return issues
