"""Matrices over the integer polynomial ring, built from tree distances.

Four constructions: the plain distance matrix, its two q-analogues (bracket
entries and monomial entries), and the all-ones shift used by the rank-one
perturbation determinant.  Minors are taken by deleting 1-based row and
column index sets, matching the superscript/subscript minor notation.

A matrix stores each entry as its canonical coefficient tuple, the form of
``Poly.coeffs``, so the determinant kernels read its rows as they are
stored.  Every entry is a function of one distance, and a builder makes
one tuple per distinct distance and shares it across the matrix.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .polyring import Poly, _make, qbracket, qpower
from .treekit import WeightedTree, all_pairs_distances

__all__ = [
    "PolyMatrix",
    "build_d",
    "build_dq",
    "build_dq_star",
    "build_d_plus_xJ",
    "minor",
]


class PolyMatrix:
    """Immutable square matrix over Z[q]; ``rows`` holds coefficient tuples."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
            for e in row:
                if not isinstance(e, Poly):
                    raise TypeError(f"matrix entries must be Poly, got {type(e).__name__}")
        self.n = n
        self.rows = tuple(tuple(e.coeffs for e in row) for row in rows)

    def entry(self, i: int, j: int) -> Poly:
        """Entry at 1-based position (i, j)."""
        return _make(self.rows[i - 1][j - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n})"


def _trusted(rows: tuple) -> PolyMatrix:
    # trusted constructor: a non-empty square tuple of tuples of canonical
    # coefficient tuples
    m = PolyMatrix.__new__(PolyMatrix)
    m.n = len(rows)
    m.rows = rows
    return m


def _from_distances(t: WeightedTree, f: Callable[[int], tuple]) -> PolyMatrix:
    dist = all_pairs_distances(t).rows
    entry = {x: f(x) for x in set().union(*dist)}
    return _trusted(tuple(tuple([entry[x] for x in row]) for row in dist))


def build_d(t: WeightedTree) -> PolyMatrix:
    """Distance matrix with constant-polynomial entries d(v_i, v_j)."""
    return _from_distances(t, lambda x: (x,) if x else ())


def build_dq(t: WeightedTree) -> PolyMatrix:
    """Bracket q-distance matrix: entry (i, j) is [d(v_i, v_j)]."""
    return _from_distances(t, lambda x: qbracket(x).coeffs)


def build_dq_star(t: WeightedTree) -> PolyMatrix:
    """Monomial q-distance matrix: entry (i, j) is q^d(v_i, v_j), diagonal 1."""
    return _from_distances(t, lambda x: qpower(x).coeffs)


def build_d_plus_xJ(t: WeightedTree) -> PolyMatrix:
    """Distance matrix shifted by x times the all-ones matrix.

    The ring indeterminate plays the role of x here; entries are d + x.
    """
    return _from_distances(t, lambda x: (x, 1))


def minor(m: PolyMatrix, rows: Iterable[int], cols: Iterable[int]) -> PolyMatrix:
    """Submatrix after deleting 1-based row set and column set of equal size."""
    rset, cset = set(rows), set(cols)
    if len(rset) != len(cset):
        raise ValueError("row and column deletion sets must have equal size")
    for idx in rset | cset:
        if not 1 <= idx <= m.n:
            raise ValueError(f"index {idx} out of range 1..{m.n}")
    if len(rset) == m.n:
        raise ValueError("cannot delete every row")
    keep_c = [j for j in range(m.n) if j + 1 not in cset]
    return _trusted(tuple(tuple([row[j] for j in keep_c])
                          for i, row in enumerate(m.rows) if i + 1 not in rset))
