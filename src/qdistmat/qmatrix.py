"""Matrices over the integer polynomial ring, built from tree distances.

Four constructions: the plain distance matrix, its two q-analogues (bracket
entries and monomial entries), and the all-ones shift used by the rank-one
perturbation determinant.  Minors are taken by deleting 1-based row and
column index sets, matching the superscript/subscript minor notation.
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
    """Immutable square matrix with Poly entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(e for e in row) for row in rows)
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
        self.rows = rows

    def entry(self, i: int, j: int) -> Poly:
        """Entry at 1-based position (i, j)."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[Poly, ...]:
        """Column with 1-based index j."""
        return tuple(row[j - 1] for row in self.rows)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(tuple(zip(*self.rows)))

    def eval_int(self, t: int) -> tuple[tuple[int, ...], ...]:
        """Entrywise integer evaluation at t."""
        return tuple(tuple(e.eval_int(t) for e in row) for row in self.rows)

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n})"

    def to_json_rows(self) -> list[list[str]]:
        """n x n array of polynomial strings."""
        return [[str(e) for e in row] for row in self.rows]


def _from_distances(t: WeightedTree, f: Callable[[int], Poly]) -> PolyMatrix:
    dist = all_pairs_distances(t)
    return PolyMatrix([[f(x) for x in row] for row in dist.rows])


def build_d(t: WeightedTree) -> PolyMatrix:
    """Distance matrix with constant-polynomial entries d(v_i, v_j)."""
    return _from_distances(t, lambda x: _make((x,) if x else ()))


def build_dq(t: WeightedTree) -> PolyMatrix:
    """Bracket q-distance matrix: entry (i, j) is [d(v_i, v_j)]."""
    return _from_distances(t, qbracket)


def build_dq_star(t: WeightedTree) -> PolyMatrix:
    """Monomial q-distance matrix: entry (i, j) is q^d(v_i, v_j), diagonal 1."""
    return _from_distances(t, qpower)


def build_d_plus_xJ(t: WeightedTree) -> PolyMatrix:
    """Distance matrix shifted by x times the all-ones matrix.

    The ring indeterminate plays the role of x here; entries are d + x.
    """
    return _from_distances(t, lambda x: _make((x, 1)))


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
    keep_r = [i for i in range(m.n) if i + 1 not in rset]
    keep_c = [j for j in range(m.n) if j + 1 not in cset]
    return PolyMatrix([[m.rows[i][j] for j in keep_c] for i in keep_r])
