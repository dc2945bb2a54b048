"""Weighted trees on labeled vertices, their generation, and exact distances.

Vertices carry 1-based labels v_1..v_n; label order is semantically
meaningful (pendant-vertex identities such as v_1 and v_n matter to the
determinant recurrences), so every constructor preserves it.  Edge weights
are positive integers.
"""

from __future__ import annotations

import heapq
import itertools
import json
import operator
import random
import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "InvalidTreeError",
    "WeightedTree",
    "from_edges",
    "prufer_decode",
    "enumerate_trees",
    "random_tree",
    "random_trees",
    "path_tree",
    "star_tree",
    "all_pairs_distances",
    "canonical_order",
    "relabel",
    "parse_tree_text",
    "tree_to_text",
    "tree_from_json_dict",
    "tree_to_json_dict",
    "load_tree",
    "parse_int",
    "as_int",
]

MAX_EXHAUSTIVE_N = 8


class InvalidTreeError(ValueError):
    """Raised when an edge list does not describe a weighted tree.

    ``code`` identifies the specific violation: edge-count, label-range,
    self-loop, duplicate-edge, bad-weight, cycle, or format.  (n - 1 edges
    without a cycle always connect the n vertices.)
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def as_int(x) -> int:
    """x as an int: what ``operator.index`` accepts, except a bool.

    A float, bool or string raises ValueError rather than being truncated
    or coerced, as the file formats reject them.
    """
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"expected an integer, got {x!r}")
    return operator.index(x)


def _integer(x) -> int:
    # as_int for tree input, which calls it only when ``type`` finds no int
    try:
        return as_int(x)
    except ValueError as exc:
        raise InvalidTreeError("format", str(exc)) from None


def parse_int(token: str) -> int:
    """The integer a text token spells: an optional sign and ASCII digits.

    ``int`` would also take "1_0" as 10 and non-ASCII digits such as "٣";
    those raise ValueError here.
    """
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


class WeightedTree:
    """A tree on vertices 1..n with positive integer edge weights."""

    __slots__ = ("n", "edges", "_adj", "_dist")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        edges = tuple((u, v, w) for u, v, w in edges)
        if set(map(type, itertools.chain((n,), *edges))) - {int}:
            n = _integer(n)
            edges = tuple(tuple(map(_integer, e)) for e in edges)
        if n < 1:
            raise InvalidTreeError("label-range", f"vertex count {n} < 1")
        if len(edges) != n - 1:
            raise InvalidTreeError(
                "edge-count", f"expected {n - 1} edges for {n} vertices, got {len(edges)}"
            )
        seen = set()
        for u, v, w in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidTreeError("label-range", f"edge ({u},{v}) leaves 1..{n}")
            if u == v:
                raise InvalidTreeError("self-loop", f"self-loop at vertex {u}")
            if w < 1:
                raise InvalidTreeError("bad-weight", f"nonpositive weight {w} on ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidTreeError("duplicate-edge", f"duplicate edge {key}")
            seen.add(key)
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise InvalidTreeError("cycle", f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv
        self.n = n
        self.edges = edges
        self._adj = None
        self._dist = None

    @property
    def weights(self) -> tuple[int, ...]:
        """Edge weights in edge order (a multiset for the closed forms)."""
        return tuple(w for _, _, w in self.edges)

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Neighbor lists indexed by vertex label; entries are (vertex, weight)."""
        if self._adj is None:
            lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
            for u, v, w in self.edges:
                lists[u].append((v, w))
                lists[v].append((u, w))
            self._adj = tuple(tuple(l) for l in lists)
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def pendant_vertices(self) -> tuple[int, ...]:
        if self.n == 1:
            return (1,)
        return tuple(v for v in range(1, self.n + 1) if self.degree(v) == 1)

    def is_simple(self) -> bool:
        """True when every edge weight equals one."""
        return all(w == 1 for w in self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self.n == other.n and self.edge_set() == other.edge_set()

    def __hash__(self):
        return hash((self.n, self.edge_set()))

    def edge_set(self) -> frozenset[tuple[int, int, int]]:
        """Edges with endpoints in ascending order, ignoring edge order."""
        return frozenset((min(u, v), max(u, v), w) for u, v, w in self.edges)

    def __repr__(self) -> str:
        return f"WeightedTree(n={self.n}, edges={list(self.edges)})"


def from_edges(n: int, edges: Iterable[tuple[int, int, int]]) -> WeightedTree:
    """Validate and build a weighted tree from an explicit edge list."""
    return WeightedTree(n, edges)


def prufer_decode(
    seq: Sequence[int], n: int, weights: Sequence[int]
) -> WeightedTree:
    """Decode a Prufer sequence into the unique labeled tree it encodes.

    Weights attach to edges in decode order: the i-th emitted edge gets
    weights[i].  The classic smallest-leaf rule fixes the decode order.
    """
    seq = list(seq)
    if set(map(type, (n, *seq))) - {int}:
        n = _integer(n)
        seq = list(map(_integer, seq))
    if n < 2:
        raise InvalidTreeError("label-range", "Prufer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise InvalidTreeError(
            "edge-count", f"Prufer sequence for n={n} must have length {n - 2}"
        )
    for a in seq:
        if not 1 <= a <= n:
            raise InvalidTreeError("label-range", f"Prufer label {a} leaves 1..{n}")
    weights = list(weights)  # WeightedTree checks that they are integers
    if len(weights) != n - 1:
        raise InvalidTreeError("edge-count", f"need {n - 1} weights, got {len(weights)}")
    degree = [1] * (n + 1)
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for i, a in enumerate(seq):
        v = heapq.heappop(leaves)
        edges.append((v, a, weights[i]))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v), weights[n - 2]))
    return WeightedTree(n, edges)


def enumerate_trees(n: int, weight: int = 1) -> Iterator[WeightedTree]:
    """All n^(n-2) labeled trees on n vertices, uniform edge weight.

    Supported for 2 <= n <= 8; the count grows as n^(n-2).
    """
    if not 2 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration supports 2 <= n <= {MAX_EXHAUSTIVE_N}")
    if weight < 1:
        raise InvalidTreeError("bad-weight", f"nonpositive weight {weight}")
    uniform = [weight] * (n - 1)
    # a generator expression, so the checks above run at call time
    return (prufer_decode(seq, n, uniform)
            for seq in itertools.product(range(1, n + 1), repeat=n - 2))


def random_tree(n: int, max_weight: int, seed: int) -> WeightedTree:
    """Uniformly random labeled tree via a random Prufer sequence.

    Weights are independent uniform draws from 1..max_weight; the result
    is a deterministic function of the seed.
    """
    if n < 2:
        raise ValueError("random trees need n >= 2")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    rng = random.Random(seed)
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    weights = [rng.randint(1, max_weight) for _ in range(n - 1)]
    return prufer_decode(seq, n, weights)


def random_trees(
    count: int, n_min: int, n_max: int, max_weight: int, seed: int
) -> Iterator[WeightedTree]:
    """Stream of independent random trees with n uniform in [n_min, n_max].

    The parameters are checked at call time, before the first tree.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError("random trees need 2 <= n_min <= n_max")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    rng = random.Random(seed)
    return (random_tree(rng.randint(n_min, n_max), max_weight, rng.getrandbits(63))
            for _ in range(count))


def path_tree(n: int, weights: Sequence[int]) -> WeightedTree:
    """Path v_1 - v_2 - ... - v_n with weights in path order."""
    if n < 1:
        raise InvalidTreeError("label-range", f"a path needs n >= 1 vertices, got {n}")
    weights = list(weights)
    if len(weights) != n - 1:
        raise InvalidTreeError("edge-count", f"need {n - 1} weights, got {len(weights)}")
    return WeightedTree(n, [(i, i + 1, weights[i - 1]) for i in range(1, n)])


def star_tree(n: int, weights: Sequence[int]) -> WeightedTree:
    """Star with center v_n and pendants v_1..v_(n-1); edge i carries weights[i-1]."""
    if n < 1:
        raise InvalidTreeError("label-range", f"a star needs n >= 1 vertices, got {n}")
    weights = list(weights)
    if len(weights) != n - 1:
        raise InvalidTreeError("edge-count", f"need {n - 1} weights, got {len(weights)}")
    return WeightedTree(n, [(i, n, weights[i - 1]) for i in range(1, n)])


def all_pairs_distances(t: WeightedTree) -> tuple[tuple[int, ...], ...]:
    """Exact distances via one traversal per source vertex, O(n^2) total.

    Row i - 1, column j - 1 holds d(v_i, v_j).  The table is computed once
    per tree and kept on it; later calls return the same tuple of tuples.
    """
    if t._dist is not None:
        return t._dist
    adj = t.adjacency()
    n = t.n
    rows = []
    for s in range(1, n + 1):
        dist = [0] * (n + 1)
        stack = [(s, 0)]
        while stack:
            v, parent = stack.pop()
            dv = dist[v]
            for u, w in adj[v]:
                if u != parent:
                    dist[u] = dv + w
                    stack.append((u, v))
        rows.append(tuple(dist[1:]))
    t._dist = tuple(rows)
    return t._dist


def canonical_order(t: WeightedTree) -> tuple[int, ...]:
    """The labels in a canonical order, after Aho, Hopcroft & Ullman (1974), §3.2.

    An isomorphism of weighted trees maps the k-th label of one tree's order
    to the k-th of the other's, so isomorphic trees give equal distance
    tables once both are rewritten in this order.  Peeling leaves finds the
    centre or bicentre; from there the vertices fall into levels by depth,
    the other centre of a bicentre being no one's child.  Level by level,
    from the deepest, a vertex's rooted subtree gets the rank, among its
    level, of the sorted tuple of its children's (rank, edge weight)
    pairs; equal ranks mean isomorphic subtrees.  The walk starts at the
    centre of smaller rank and visits each vertex before its children,
    which it takes in (rank, weight) order; the other centre of a bicentre
    and its subtree come last.  Ranks are plain integers, so no comparison
    recurses into a deep subtree.
    """
    n, adj = t.n, t.adjacency()
    degree = [len(nbrs) for nbrs in adj]
    centres = [v for v in range(1, n + 1) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(centres)
        peeled, centres = centres, []
        for v in peeled:
            for u, _ in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    centres.append(u)
    seen = set(centres)
    children = [()] * (n + 1)
    levels = [centres]
    while levels[-1]:
        below = []
        for v in levels[-1]:
            children[v] = [(u, w) for u, w in adj[v] if u not in seen]
            below.extend(u for u, _ in children[v])
        seen.update(below)
        levels.append(below)
    rank = [0] * (n + 1)
    for level in reversed(levels):
        for v in level:
            children[v].sort(key=lambda c: (rank[c[0]], c[1]))
        shapes = [tuple((rank[u], w) for u, w in children[v]) for v in level]
        ids = {s: i for i, s in enumerate(sorted(set(shapes)))}
        for v, s in zip(level, shapes):
            rank[v] = ids[s]
    stack = sorted(centres, key=rank.__getitem__, reverse=True)
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(u for u, _ in reversed(children[v]))
    return tuple(order)


def relabel(t: WeightedTree, mapping: dict[int, int]) -> WeightedTree:
    """Rename vertices; mapping must be a bijection of 1..n."""
    if sorted(mapping) != list(range(1, t.n + 1)) or sorted(
        mapping.values()
    ) != list(range(1, t.n + 1)):
        raise ValueError("mapping must be a permutation of 1..n")
    return WeightedTree(t.n, [(mapping[u], mapping[v], w) for u, v, w in t.edges])


def pendant_first_last(t: WeightedTree, seed: int = 0) -> WeightedTree:
    """Relabel so that v_1 and v_n are pendant vertices (identity if already)."""
    n = t.n
    if n < 2:
        return t
    pendants = t.pendant_vertices()
    if 1 in pendants and n in pendants:
        return t
    rng = random.Random(seed)
    p, r = rng.sample(pendants, 2)
    mapping = dict(zip(range(1, n + 1), range(1, n + 1)))
    # transpositions sending p -> 1 and r -> n
    mapping[p], mapping[1] = mapping[1], mapping[p]
    src_r = next(k for k, val in mapping.items() if val == n)
    mapping[r], mapping[src_r] = mapping[src_r], mapping[r]
    return relabel(t, mapping)


# -- tree file formats ---------------------------------------------------


def tree_to_text(t: WeightedTree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v} {w}" for u, v, w in t.edges)
    return "\n".join(lines) + "\n"


def parse_tree_text(text: str) -> WeightedTree:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidTreeError("format", "empty tree file")
    try:
        n = parse_int(lines[0])
    except ValueError:
        raise InvalidTreeError("format", f"first line must be the vertex count, got {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidTreeError("format", f"edge line must be 'u v w', got {ln!r}")
        try:
            edges.append(tuple(map(parse_int, parts)))
        except ValueError:
            raise InvalidTreeError("format", f"non-integer edge line {ln!r}")
    return WeightedTree(n, edges)


def tree_to_json_dict(t: WeightedTree) -> dict:
    return {"n": t.n, "edges": [[u, v, w] for u, v, w in t.edges]}


def tree_from_json_dict(obj: dict) -> WeightedTree:
    """Read {"n": int, "edges": [[u, v, w], ...]}; every number a JSON integer.

    A float, bool or string is rejected rather than truncated or coerced,
    as the text format rejects "1 2 1.0".
    """
    shape = "tree JSON must be {'n': int, 'edges': [[u,v,w],...]}"
    try:
        n = obj["n"]
        edges = [(u, v, w) for u, v, w in obj["edges"]]
    except (KeyError, TypeError, ValueError):
        raise InvalidTreeError("format", shape)
    for x in (n, *(x for e in edges for x in e)):
        if type(x) is not int:
            raise InvalidTreeError("format", f"{shape}, got non-integer {json.dumps(x)}")
    return WeightedTree(n, edges)


def load_tree(path: str) -> WeightedTree:
    """Read a tree file in the text or the JSON format; a UTF-8 BOM is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # the decoder recurses once per nesting level
            raise InvalidTreeError("format", f"bad JSON tree file: {exc}")
        return tree_from_json_dict(obj)
    return parse_tree_text(text)
