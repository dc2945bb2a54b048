"""Matrices over the integer polynomial ring, built from tree distances.

Four constructions: the plain distance matrix, its two q-analogues (bracket
entries and monomial entries), and the all-ones shift used by the rank-one
perturbation determinant.  Minors are taken by deleting 1-based row and
column index sets, matching the superscript/subscript minor notation.

A matrix is a tuple of rows, each a tuple of entries, and an entry is its
canonical coefficient tuple, the form of ``Poly.coeffs``; the determinant
kernels read the rows as they are stored.  Every entry is a function of
one distance, and a builder makes one tuple per distinct distance and
shares it across the matrix.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .polyring import qbracket, qpower
from .treekit import WeightedTree, all_pairs_distances

__all__ = [
    "build_d",
    "build_dq",
    "build_dq_star",
    "build_d_plus_xJ",
    "minor",
]


def _from_distances(t: WeightedTree, f: Callable[[int], tuple]) -> tuple:
    dist = all_pairs_distances(t)
    entry = {x: f(x) for x in set().union(*dist)}
    return tuple(tuple([entry[x] for x in row]) for row in dist)


def build_d(t: WeightedTree) -> tuple:
    """Distance matrix with constant-polynomial entries d(v_i, v_j)."""
    return _from_distances(t, lambda x: (x,) if x else ())


def build_dq(t: WeightedTree) -> tuple:
    """Bracket q-distance matrix: entry (i, j) is [d(v_i, v_j)]."""
    return _from_distances(t, lambda x: qbracket(x).coeffs)


def build_dq_star(t: WeightedTree) -> tuple:
    """Monomial q-distance matrix: entry (i, j) is q^d(v_i, v_j), diagonal 1."""
    return _from_distances(t, lambda x: qpower(x).coeffs)


def build_d_plus_xJ(t: WeightedTree) -> tuple:
    """Distance matrix shifted by x times the all-ones matrix.

    The ring indeterminate plays the role of x here; entries are d + x.
    """
    return _from_distances(t, lambda x: (x, 1))


def minor(m: tuple, rows: Iterable[int], cols: Iterable[int]) -> tuple:
    """Submatrix after deleting 1-based row set and column set of equal size."""
    n = len(m)
    rset, cset = set(rows), set(cols)
    if len(rset) != len(cset):
        raise ValueError("row and column deletion sets must have equal size")
    for idx in rset | cset:
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n}")
    if len(rset) == n:
        raise ValueError("cannot delete every row")
    keep_c = [j for j in range(n) if j + 1 not in cset]
    return tuple(tuple([row[j] for j in keep_c])
                 for i, row in enumerate(m) if i + 1 not in rset)
