"""Seeded text generators for the paper's Fig 6 star and Fig 8 chain shapes.

The benchmark makes its own inputs, so the program under test only ever
sees query and view texts.  The draws follow the paper's generator
(Sec. 7): 8-subgoal queries over binary base relations, views of 1-3
subgoals, half of them drawn over the query's own relations, and with
``nondistinguished`` set, half of the eligible views drop one variable.
The random calls are made in the same order as ``repro.workload``, so a
seed yields the same texts as the repo's own figure harness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass

STAR_RELATIONS = 13
CHAIN_RELATIONS = 40
QUERY_SUBGOALS = 8
VIEW_LOCALITY = 0.5
NONDISTINGUISHED_RATE = 0.5
#: The figure harness steps seeds by this prime between queries.
SEED_STRIDE = 7919
#: Chain seeds sit this far above star seeds, so the default seed 17
#: gives star 17 and chain 23, as in ``benchmarks/conftest.py``.
CHAIN_SEED_OFFSET = 6
MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class Instance:
    """One generated query and its views, as texts."""

    shape: str
    seed: int
    nondistinguished: int
    query: str
    views: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.shape}-nd{self.nondistinguished}-s{self.seed}"


def _atom(relation: int, left: str, right: str) -> str:
    return f"r{relation}({left}, {right})"


def _rule(head: str, variables: list[str], body: list[str]) -> str:
    return f"{head}({', '.join(variables)}) :- {', '.join(body)}"


def _star_query(rng: random.Random, nondistinguished: int):
    relations = rng.sample(range(STAR_RELATIONS), QUERY_SUBGOALS)
    satellites = [f"X{i + 1}" for i in range(len(relations))]
    body = [_atom(r, "X0", satellites[i]) for i, r in enumerate(relations)]
    head = ["X0"] + satellites
    if nondistinguished:
        head = head[: len(head) - nondistinguished]
    return _rule("q", head, body), tuple(relations)


def _chain_query(rng: random.Random, nondistinguished: int):
    start = rng.randrange(max(1, CHAIN_RELATIONS - QUERY_SUBGOALS + 1))
    variables = [f"X{i}" for i in range(QUERY_SUBGOALS + 1)]
    body = [
        _atom(start + i, variables[i], variables[i + 1])
        for i in range(QUERY_SUBGOALS)
    ]
    removed = set(variables[1:-1][:nondistinguished])
    head = [v for v in variables if v not in removed]
    return _rule("q", head, body), tuple(range(start, start + QUERY_SUBGOALS))


def _drop(rng: random.Random, candidates: list[str], count: int) -> set[str]:
    shuffled = candidates[:]
    rng.shuffle(shuffled)
    return set(shuffled[:count])


def _views(rng, shape, nondistinguished, query_relations, num_views, prefix):
    views = []
    for index in range(num_views):
        size = rng.randint(1, 3)
        name = f"{prefix}v{index}"
        local = rng.random() < VIEW_LOCALITY
        drops = 0
        if nondistinguished and rng.random() < NONDISTINGUISHED_RATE:
            drops = nondistinguished
        if shape == "star":
            pool = list(query_relations) if local else range(STAR_RELATIONS)
            relations = rng.sample(pool, min(size, len(list(pool))))
            satellites = [f"Y{i}" for i in range(len(relations))]
            body = [_atom(r, "C", satellites[i]) for i, r in enumerate(relations)]
            removed = _drop(rng, satellites, drops) if drops else set()
            head = [v for v in ["C"] + satellites if v not in removed]
        else:
            if local:
                window = len(query_relations)
                start = query_relations[0] + rng.randrange(window - size + 1)
            else:
                start = rng.randrange(CHAIN_RELATIONS - size + 1)
            variables = [f"Y{i}" for i in range(size + 1)]
            body = [
                _atom(start + i, variables[i], variables[i + 1])
                for i in range(size)
            ]
            interior = variables[1:-1]
            removed = set()
            if drops and size > 1 and interior:
                removed = _drop(rng, interior, drops)
            head = [v for v in variables if v not in removed]
        views.append(_rule(name, head, body))
    return tuple(views)


def generate(shape, seed, num_views, nondistinguished, is_rewritable, prefix=""):
    """One rewritable instance; views are resampled until a rewriting exists.

    *is_rewritable* receives ``(query, views)`` texts; the paper discards
    queries without rewritings, and so does this generator.
    """
    rng = random.Random(seed)
    build = _star_query if shape == "star" else _chain_query
    for _attempt in range(MAX_ATTEMPTS):
        query, relations = build(rng, nondistinguished)
        views = _views(rng, shape, nondistinguished, relations, num_views, prefix)
        if is_rewritable(query, views):
            return Instance(shape, seed, nondistinguished, query, views)
    raise RuntimeError(f"no rewritable {shape} instance for seed {seed}")


def merged(shape, seeds, views_each, nondistinguished, is_rewritable, tag):
    """Instances for *seeds* whose views, renamed apart, form one catalog.

    Each instance is generated (and checked rewritable) with
    *views_each* views; its view names get the prefix ``<tag><k>_``.
    Returns the instances and the merged view texts.
    """
    instances = [
        generate(shape, s, views_each, nondistinguished, is_rewritable, f"{tag}{k}_")
        for k, s in enumerate(seeds)
    ]
    return instances, [view for instance in instances for view in instance.views]


def rename_relations(instance: Instance, prefix: str) -> Instance:
    """*instance* over base relations ``<prefix>i`` instead of ``ri``.

    Merged catalogs give each shape its own base schema, so a query's
    rewritings use only the views of its own shape.
    """
    pattern = re.compile(r"\br(\d+)\(")
    replacement = prefix + r"\1("
    return dataclasses.replace(
        instance,
        query=pattern.sub(replacement, instance.query),
        views=tuple(pattern.sub(replacement, view) for view in instance.views),
    )


def shape_seed(shape: str, seed: int, index: int) -> int:
    """The seed of the *index*-th query of *shape* for benchmark seed *seed*."""
    base = seed if shape == "star" else seed + CHAIN_SEED_OFFSET
    return base + index * SEED_STRIDE


def input_hash(instances) -> str:
    """sha256 over every generated query and view text, in order."""
    digest = hashlib.sha256()
    for instance in instances:
        digest.update(instance.query.encode())
        digest.update(b"\n")
        for view in instance.views:
            digest.update(view.encode())
            digest.update(b"\n")
    return digest.hexdigest()
