"""Exact determinants over the integer polynomial ring.

Two routes with different jobs: one sparse Gaussian elimination over the
rationals is the production path, and Laplace expansion over column
subsets, with no division and no pivot, is the independent oracle it is
checked against.  check_dodgson_identity evaluates both sides of the
condensation identity (the paper's Dodgson rule) with determinants of
minors, by the elimination unless the caller passes its own:

    det(A) det(A with rows/cols i, j deleted)
        = det(A_{i,i}) det(A_{j,j}) - det(A_{i,j}) det(A_{j,i})

for any two rows and columns i < j, by default the first and last.

A matrix is a tuple of rows of canonical coefficient tuples, as the
``qmatrix`` builders return it.  There is one elimination, on every
backend: ``bareiss_det`` (the name is historical) packs each distinct
entry by Kronecker substitution (``polyring.pack``) at the Hadamard
width, takes the determinant of the integer matrix by Markowitz-pivoted
elimination on reduced fractions, updating only the entries a pivot row
touches (``_sparse_det``), and reads the coefficients back
(``polyring.unpack``); its docstring proves the width exact.  The cost
grows with the width and with the nonzeros: the identity suite hands the
elimination all four matrices in their tree-congruent form
(``qmatrix.tree_congruent``), three arrowheads and a diagonal matrix of
at most 3n - 2 nonzeros, which keep the determinant, and for D_q the leaf
minors, and pack far narrower.  Dense matrices take the same route.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Callable, Optional

from .polyring import ONE, Poly, _make, pack, unpack
from .qmatrix import minor

__all__ = ["det_bareiss", "det_cofactor", "check_dodgson_identity"]


def det_bareiss(m: tuple) -> Poly:
    """Exact determinant by the one sparse elimination (``bareiss_det``).

    The name is historical: the elimination was once Bareiss's.  The rows
    of coefficient tuples are read as they are stored; raises ValueError
    on an empty or non-square matrix.
    """
    return _make(bareiss_det(m))


def bareiss_det(rows):
    """Exact determinant of a square matrix of canonical coefficient tuples.

    The name is historical: this was once a fraction-free Bareiss
    elimination, and is now one sparse Gaussian elimination over the
    rationals (``_sparse_det``), which takes dense and tree-sparse matrices
    alike.  Kronecker substitution: every entry is evaluated at q = 2^b,
    the elimination takes the determinant of the resulting integer
    matrix, and the determinant's coefficients, a canonical list, are read
    back as the signed base-2^b digits of the result.  The width that
    makes this exact comes from the Hadamard bound

        sq = prod_i sum_j ||M_ij||_1^2,   b = (bit_length(sq) + 1) // 2 + 2.

    For |z| = 1, |M_ij(z)| <= ||M_ij||_1, so by Hadamard's inequality
    |det M(z)| <= sqrt(sq); by Parseval every coefficient of det M is at
    most the maximum of |det M(z)| on the unit circle, hence below
    2^(b-1), and the digits at width b are the coefficients.

    A tree matrix holds few distinct entries, one shared tuple per
    distance, so each distinct entry's norm and packed value are taken
    once.  The cost grows with b and with the nonzeros: D_q of
    ``random_tree(24, 4, 0)`` has b = 152 and 552 nonzeros as built, and
    b = 59 and 69 nonzeros in its tree-congruent form.
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
    # each nonzero entry as the fraction (M_ij(2^b), 1)
    packed = {e: (pack(e, bits), 1) for e, w in norm.items() if w}
    return unpack(_sparse_det([{j: packed[e] for j, e in enumerate(row) if e in packed}
                               for row in rows]), bits)


def _sparse_det(rows):
    """Determinant of a square integer matrix, given as rows of {column: (nonzero, 1)}.

    Gaussian elimination over the rationals.  Each nonzero entry is a pair
    (numerator, denominator) in lowest terms with a positive denominator;
    each row is a dict from column to entry, updated in place, and each
    column a set of the rows that hold a nonzero in it.  Step k pivots on an
    entry (p, c) of the rows not yet pivoted, subtracts the multiple of
    row p that clears column c from every other row with an entry in
    column c, and retires row p and column c.  Subtracting a multiple of
    one row from another keeps the determinant, and after the step column
    c of the unpivoted rows is zero but for the pivot; so after n steps

        det = sgn(sigma) * prod_k pivot_k,   sigma: p_k -> c_k,

    the product of the pivots times the sign of their permutation.  The
    steps so far are Gaussian elimination of the submatrix on their pivot
    rows and columns, so after k steps the product of the pivots is, up
    to sign, that k x k minor, an integer.  So the product is kept as one
    integer: each pivot's denominator divides it exactly, being prime to
    the pivot's numerator.  If an unpivoted row is empty, the determinant
    is 0.

    The pivot is the entry of least Markowitz cost (r - 1)(c - 1), with r
    and c the nonzeros of its row and column among the unpivoted rows, the
    narrowest (numerator and denominator bit lengths summed) on ties, the
    first found on further ties.  A pivot of cost 0 is alone in its row or
    its column and so updates no entry: the first one found is taken
    whatever its width.  The cost bounds the fill-in of the step,
    and an update touches only the columns of the pivot row: on the
    arrowhead of ``qmatrix.tree_congruent`` every non-root diagonal entry
    costs 1 and fills at most the root corner, so the elimination takes
    O(n) updates where a dense one takes O(n^3).  The pivot order cannot
    change the result, only its cost.

    Reducing every entry by its gcd keeps the pairs short: after pivoting
    on rows P and columns Q, entry (i, j) is the ratio of the minors of
    the matrix on rows P + {i}, columns Q + {j} and on rows P, columns Q,
    whatever the order, so each reduced numerator and denominator is at
    most a minor (Cramer's rule and Sylvester's identity).  Unreduced,
    the denominators grow geometrically with the steps on a dense matrix.
    """
    n = len(rows)
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live = set(range(n))
    pivot_col = [0] * n
    det = 1
    for _ in range(n):
        cost = n * n
        for i in live:
            row = rows[i]
            if not row:
                return 0
            r = len(row) - 1
            for j, (x, d) in row.items():
                k = r * (len(cols[j]) - 1)
                if k < cost or k == cost and x.bit_length() + d.bit_length() < width:
                    cost, width, p, c = k, x.bit_length() + d.bit_length(), i, j
                    if not k:
                        break
            if not cost:
                break
        live.remove(p)
        pivot_col[p] = c
        prow = rows[p]
        an, ad = prow.pop(c)
        det = det // ad * an
        for j in prow:
            cols[j].discard(p)
        col = cols[c]
        col.discard(p)
        for i in col:
            row = rows[i]
            ln, ld = row.pop(c)
            # the multiplier f = l / a, in lowest terms with fd > 0
            fn, fd = ln * ad, ld * an
            g = gcd(fn, fd)
            if fd < 0:
                g = -g
            fn //= g
            fd //= g
            for j, (yn, yd) in prow.items():
                # x - f y, or -f y where row i held no entry
                tn, td = fn * yn, fd * yd
                if j in row:
                    xn, xd = row[j]
                    zn, zd = xn * td - tn * xd, xd * td
                    if not zn:
                        del row[j]
                        cols[j].discard(i)
                        continue
                else:
                    zn, zd = -tn, td
                    cols[j].add(i)
                g = gcd(zn, zd)
                row[j] = (zn // g, zd // g)
        col.clear()
    # sgn(sigma) by the parity of its inversions
    if sum(a > b for i, a in enumerate(pivot_col) for b in pivot_col[i + 1:]) & 1:
        return -det
    return det


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
