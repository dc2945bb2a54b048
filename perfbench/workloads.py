"""Workloads: the CLI arguments each pass sends and what a correct answer is.

A workload turns the benchmark seed into an endless stream of passes. A
pass is a list of CLI invocations that together form one fixed unit of
work; a run repeats whole passes, so every run of a workload does the same
kind of work whatever its length. The program only ever sees the argument
lists built here.

The recorded answers live in ``expected.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the answer the correctness gate expects from it."""

    args: tuple[str, ...]
    trees: int
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    make_passes: Callable[[int], Iterator[list[Invocation]]]
    tree_per_invocation: bool  # det checks one tree per call; verify streams a corpus


def checks_per_tree(n: int, simple: bool) -> int:
    """Checks `verify` runs on one tree: the recorded shape of the identity suite.

    Four determinant-vs-closed-form checks, three more on unit-weight trees,
    Dodgson and corner-minor checks from n = 3, the four-term recurrence from
    n = 4, and both generating-function checks up to n = 8.
    """
    return 4 + 3 * simple + 2 * (n >= 3) + (n >= 4) + 2 * (n <= 8)


def det_digest(checks: list[dict]) -> str:
    """sha256 over the determinant strings of a `det --output json` answer."""
    text = "\n".join(f"{c['name']}: {c['determinant']}" for c in checks)
    return hashlib.sha256(text.encode()).hexdigest()


def _exhaustive(name: str) -> Workload:
    rec = EXPECTED[name]
    inv = Invocation(
        ("verify", "--exhaustive", str(rec["n"]), "--output", "json"),
        rec["trees"],
        {"trees": rec["trees"], "checks": rec["checks"]},
    )

    def make_passes(seed: int) -> Iterator[list[Invocation]]:
        while True:  # the corpus is every labeled tree: the seed has nothing to choose
            yield [inv]

    return Workload(name, make_passes, tree_per_invocation=False)


def _seed_for_size(rng: random.Random, n: int, n_max: int, max_weight: int):
    """A `verify --random 1` seed whose tree has n vertices, and that tree."""
    from qdistmat.treekit import random_trees

    while True:
        seed = rng.getrandbits(31)
        (tree,) = random_trees(1, 2, n_max, max_weight, seed)
        if tree.n == n:
            return seed, tree


def _random_verify(name: str) -> Workload:
    rec = EXPECTED[name]
    n_max, max_weight = rec["n_max"], rec["max_weight"]

    def make_passes(seed: int) -> Iterator[list[Invocation]]:
        # One tree of each size 2..n_max a pass: the CLI's own uniform
        # distribution of n without its sampling noise. A tree costs about
        # n!, so free draws would swing the cost of a run by a quarter.
        rng = random.Random(seed)
        while True:
            todo = []
            for n in range(2, n_max + 1):
                cli_seed, tree = _seed_for_size(rng, n, n_max, max_weight)
                todo.append(Invocation(
                    ("verify", "--random", "1", "--n-max", str(n_max),
                     "--max-weight", str(max_weight), "--seed", str(cli_seed),
                     "--output", "json"),
                    1,
                    {"trees": 1, "checks": checks_per_tree(tree.n, tree.is_simple())},
                ))
            yield todo

    return Workload(name, make_passes, tree_per_invocation=False)


def _det_panel(name: str) -> Workload:
    rec = EXPECTED[name]
    panel = [
        Invocation(
            ("det", "--random", str(t["n"]), "--max-weight", str(rec["max_weight"]),
             "--seed", str(t["seed"]), "--output", "json"),
            1,
            {"n": t["n"], "checks": 4, "sha256": t["sha256"]},
        )
        for t in rec["trees"]
    ]

    def make_passes(seed: int) -> Iterator[list[Invocation]]:
        # Bareiss cost at fixed n swings threefold with the tree's shape, so
        # seeded trees would make runs incomparable: every pass is the whole
        # recorded panel, in recorded order, and the seed has nothing to choose.
        while True:
            yield panel

    return Workload(name, make_passes, tree_per_invocation=True)


WORKLOADS = {
    w.name: w
    for w in (
        _exhaustive("exhaustive6"),
        _random_verify("random8"),
        _det_panel("det-large"),
        # tiny versions of the three, for the smoke test
        _exhaustive("smoke-exhaustive4"),
        _random_verify("smoke-random5"),
        _det_panel("smoke-det6"),
    )
}
