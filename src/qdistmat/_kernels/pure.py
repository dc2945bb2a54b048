"""Pure-Python implementations of the hot kernels.

Kernel inputs are coefficient sequences (lists or tuples, never modified):
little-endian by degree, plain Python ints, and canonical, so the last
entry is nonzero and the zero polynomial is empty.  Results are lists
in the same canonical form.  The compiled module ``_speedups``
(hand-written C) implements ``bareiss_det`` and ``perm_tables`` with
machine-word fast paths; results must be identical.

``bareiss_det`` does not eliminate over polynomials: it packs each entry
by Kronecker substitution (``polyring.pack``), runs integer Bareiss on
the packed matrix and reads the coefficients back (``polyring.unpack``),
at a width its docstring proves exact.  The identity suite hands it D*_q
and D_q in their tree-congruent form (``qmatrix.tree_congruent``), which
keeps that width small.
"""

import itertools
import operator

from ..polyring import pack, unpack

__all__ = [
    "bareiss_det",
    "perm_tables",
]


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


def bareiss_det(rows):
    """Exact determinant of a square matrix of coefficient sequences.

    Kronecker substitution: every entry is evaluated at q = 2^b, one
    fraction-free integer Bareiss elimination (``_int_det``) takes the
    determinant of the resulting integer matrix, and the determinant's
    coefficients are read back as the signed base-2^b digits of the
    result.  The width that makes this exact comes from the Hadamard bound

        sq = prod_i sum_j ||M_ij||_1^2,   b = (bit_length(sq) + 1) // 2 + 2.

    For |z| = 1, |M_ij(z)| <= ||M_ij||_1, so by Hadamard's inequality
    |det M(z)| <= sqrt(sq); by Parseval every coefficient of det M is at
    most the maximum of |det M(z)| on the unit circle, hence below
    2^(b-1), and the digits at width b are the coefficients.

    The cost grows with b: D_q of ``random_tree(24, 4, 0)`` has b = 152
    as built, and b = 59 in its tree-congruent form.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    sq = 1
    for row in rows:
        sq *= sum(sum(map(abs, e)) ** 2 for e in row)
    if not sq:  # a zero row
        return []
    bits = (sq.bit_length() + 1) // 2 + 2
    return unpack(_int_det([[pack(e, bits) for e in row] for row in rows]), bits)


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


def _perm_signs(n):
    # parity of every permutation of range(n) in itertools.permutations
    # order.  The block of permutations that start with a lists the rest in
    # the order of the permutations of n - 1 elements, and putting a in
    # front costs a transpositions: the parities of n - 1, written out n
    # times, with block a flipped when a is odd.
    signs = b"\x00"
    for m in range(2, n + 1):
        flipped = bytes(s ^ 1 for s in signs)
        signs = b"".join(flipped if a & 1 else signs for a in range(m))
    return signs


def _ones_mul(a, width):
    # a * (1 + q + ... + q^(width-1)) via a sliding window of prefix sums
    m = len(a)
    prefix = [0] * (m + 1)
    acc = 0
    for i, c in enumerate(a):
        acc += c
        prefix[i + 1] = acc
    out = [0] * (m + width - 1)
    for k in range(len(out)):
        hi = k + 1 if k < m else m
        lo = k - width + 1
        out[k] = prefix[hi] - (prefix[lo] if lo > 0 else 0)
    return out


def perm_tables(dist, n):
    """Both permutation tables of the n x n table ``dist``, by their definitions.

    Returns (N, M) as canonical coefficient lists, from one sweep over the
    n! permutations p.  N is the signed histogram of the lengths
    L(p) = sum_i d(i, p(i)): entry k is the even-minus-odd count of
    permutations of length k.  M is sum_p sgn(p) prod_i [d(i, p(i))], with
    [d] = 1 + q + ... + q^(d-1); a zero distance kills the term, which
    subsumes the fixed-point rule for distance tables.  A negative
    distance, which would index the histogram from its end, raises
    ValueError.

    The compiled kernel reads M off a second histogram instead.  Since
    [d](1 - q) = 1 - q^d,

        (1 - q)^n M = sum_p sgn(p) prod_i (1 - q^d(i,p(i))).

    Expand each product over the set S of rows that take the q-term.  The
    term of (p, S) does not depend on p(i) for a row i outside S, so when
    two or more rows lie outside S, swapping p(i) and p(j) for the two
    smallest of them pairs it with a term of opposite sign.  Only S = all
    rows survives, giving (-1)^n N, and S = all rows but i, giving
    (-1)^(n-1) R with R = sum_p sgn(p) sum_i q^(L(p) - d(i, p(i))).  So
    M = (-1)^n (N - R) / (1 - q)^n for every table of nonnegative
    integers.  This kernel stays on the definition, so that the parity
    tests check the identity and the compiled sweep against it.
    """
    rows = [dist[i] for i in range(n)]  # a short table raises IndexError
    if any(d < 0 for row in rows for d in row[:n]):
        raise ValueError("distances must be nonnegative")
    signs = _perm_signs(n)
    hist = [0] * (sum(max(row[:n]) for row in rows) + 1)
    acc = []
    for odd, p in zip(signs, itertools.permutations(range(n))):
        ds = list(map(operator.getitem, rows, p))
        hist[sum(ds)] += -1 if odd else 1
        if 0 in ds:
            continue
        prod = [1]
        for w in ds:
            if w > 1:
                prod = _ones_mul(prod, w)
        if len(prod) > len(acc):
            acc.extend([0] * (len(prod) - len(acc)))
        if odd:
            for k, c in enumerate(prod):
                acc[k] -= c
        else:
            for k, c in enumerate(prod):
                acc[k] += c
    return _trim(hist), _trim(acc)
