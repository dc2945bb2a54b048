"""Exact determinants over the integer polynomial ring.

Two routes with different jobs: fraction-free Bareiss elimination is the
production path, and Laplace expansion over column subsets, with no
division and no pivot, is the independent oracle it is checked against.
check_dodgson_identity evaluates both sides of the condensation identity
(the paper's Dodgson rule) with determinants of minors, Bareiss unless the
caller passes its own:

    det(A) det(A with rows/cols i, j deleted)
        = det(A_{i,i}) det(A_{j,j}) - det(A_{i,j}) det(A_{j,i})

for any two rows and columns i < j, by default the first and last.

A matrix is a tuple of rows of canonical coefficient tuples, as the
``qmatrix`` builders return it.  There is one elimination, on every
backend: ``bareiss_det`` packs each distinct entry by Kronecker
substitution (``polyring.pack``) at the Hadamard width, eliminates over
the integers (``_int_det``) and reads the coefficients back
(``polyring.unpack``); its docstring proves the width exact.  The width,
and with it the cost, grows with the entries: the identity suite hands
the elimination D*_q and D_q in their tree-congruent form
(``qmatrix.tree_congruent``), which keeps the determinant and the leaf
minors and is far narrower.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional

from .polyring import ONE, Poly, _make, pack, unpack
from .qmatrix import minor

__all__ = ["det_bareiss", "det_cofactor", "check_dodgson_identity"]


def det_bareiss(m: tuple) -> Poly:
    """Exact determinant by fraction-free Bareiss elimination (``bareiss_det``).

    The rows of coefficient tuples are read as they are stored; raises
    ValueError on an empty or non-square matrix.
    """
    return _make(bareiss_det(m))


def bareiss_det(rows):
    """Exact determinant of a square matrix of canonical coefficient tuples.

    Kronecker substitution: every entry is evaluated at q = 2^b, one
    fraction-free integer Bareiss elimination (``_int_det``) takes the
    determinant of the resulting integer matrix, and the determinant's
    coefficients, a canonical list, are read back as the signed base-2^b
    digits of the result.  The width that makes this exact comes from the
    Hadamard bound

        sq = prod_i sum_j ||M_ij||_1^2,   b = (bit_length(sq) + 1) // 2 + 2.

    For |z| = 1, |M_ij(z)| <= ||M_ij||_1, so by Hadamard's inequality
    |det M(z)| <= sqrt(sq); by Parseval every coefficient of det M is at
    most the maximum of |det M(z)| on the unit circle, hence below
    2^(b-1), and the digits at width b are the coefficients.

    A tree matrix holds few distinct entries, one shared tuple per
    distance, so each distinct entry's norm and packed value are taken
    once.  The cost grows with b: D_q of ``random_tree(24, 4, 0)`` has
    b = 152 as built, and b = 59 in its tree-congruent form.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    norm = {e: sum(map(abs, e)) ** 2 for e in set(chain.from_iterable(rows))}
    sq = 1
    for row in rows:
        sq *= sum(map(norm.__getitem__, row))
    if not sq:  # a zero row
        return []
    bits = (sq.bit_length() + 1) // 2 + 2
    packed = {e: pack(e, bits) for e in norm}
    return unpack(_int_det([list(map(packed.__getitem__, row)) for row in rows]), bits)


def _int_det(m):
    """Determinant of a square integer matrix, by Bareiss elimination in place.

    Step k pivots on the nonzero entry of least bit length in the trailing
    block (rows and columns k..n-1), the first in row-major order on ties:
    its row and column are swapped into (k, k), each swap flipping the
    sign.  If the whole block is zero the determinant is zero.  Small
    pivots keep the intermediates narrow: a packed distance matrix has a
    zero diagonal and entries whose width grows with the distance, so the
    rule starts from near vertex pairs (1 bit for a unit edge) instead of
    whatever entry comes first in a row.

    The order does not affect exactness.  By Sylvester's identity, after k
    steps the entry (i, j), i, j >= k, is the minor of M on rows
    {0..k-1, i} and columns {0..k-1, j}; so swapping two trailing rows or
    columns is the same as swapping them in M before the elimination, and
    every division by the previous pivot stays exact.
    """
    n = len(m)
    sign = 1
    prev = 1  # pivot of the previous step; the first step divides by 1
    for k in range(n - 1):
        best = pi = pj = 0
        for i in range(k, n):
            row = m[i]
            for j in range(k, n):
                x = row[j]
                if x and (not best or x.bit_length() < best):
                    best, pi, pj = x.bit_length(), i, j
            if best == 1:
                break
        if not best:
            return 0
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for row in m:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        rowk = m[k]
        piv = rowk[k]
        for i in range(k + 1, n):
            rowi = m[i]
            rik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (piv * rowi[j] - rik * rowk[j]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def det_cofactor(m: tuple) -> Poly:
    """Determinant by Laplace expansion over column subsets, with no division.

    The expansion goes row by row and keeps one signed sum per set S of
    columns already used: after row k, the sum at S (|S| = k + 1) is the
    determinant of m on rows 0..k and the columns S.  Row k extends S by a
    column j outside it with the sign (-1)^|{s in S : s > j}|, the
    inversions j adds to the permutation.  That is at most n * 2^(n-1)
    products, against n! terms for the recursion along the first row.
    """
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise ValueError("matrix must be square and non-empty")
    sums = {0: ONE}
    for row in m:
        extended = {}
        for used, acc in sums.items():
            for j, e in enumerate(row):
                if e and not used >> j & 1:
                    term = acc * _make(e)
                    if (used >> j + 1).bit_count() & 1:
                        term = -term
                    key = used | 1 << j
                    extended[key] = extended[key] + term if key in extended else term
        sums = extended
    return sums.get((1 << n) - 1, Poly())


def check_dodgson_identity(m: tuple, pair: Optional[tuple[int, int]] = None,
                           det: Optional[Callable[[tuple, tuple], Poly]] = None) -> bool:
    """Evaluate both sides of the condensation identity on a full matrix.

    With m_{R,C} for m without the 1-based rows R and columns C, and i < j
    the ``pair`` (default (1, n), the first and last):

        det(m) det(m_{ij,ij}) = det(m_{i,i}) det(m_{j,j}) - det(m_{i,j}) det(m_{j,i}).

    Takes the determinant of the matrix and of five minors, each once; the
    order must be at least 3.  ``det(rows, cols)``, given sorted tuples of
    the deleted 1-based rows and columns (both empty for m itself), returns
    that determinant; by default it is ``det_bareiss`` of the minor.  A
    caller that passes its own can share the values with other identities
    on the same matrix.
    """
    n = len(m)
    if n < 3:
        raise ValueError("identity check needs order >= 3")
    i, j = (1, n) if pair is None else pair
    if not 1 <= i < j <= n:
        raise ValueError(f"pair must be 1 <= i < j <= {n}, got {(i, j)}")
    if det is None:
        def det(rows, cols):
            return det_bareiss(minor(m, rows, cols) if rows else m)

    lhs = det((), ()) * det((i, j), (i, j))
    rhs = det((i,), (i,)) * det((j,), (j,)) - det((i,), (j,)) * det((j,), (i,))
    return lhs == rhs
