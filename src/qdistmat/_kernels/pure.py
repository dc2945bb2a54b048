"""The pure-Python permutation sweep.

``perm_tables`` takes a distance table (a sequence of rows of plain
Python ints, never modified) and returns the N- and M-tables as
coefficient lists: little-endian by degree and canonical, so the last
entry is nonzero and the zero polynomial is empty.  The compiled module
``_speedups`` (hand-written C) implements the same sweep in machine
words; results must be identical.
"""

import itertools
import operator

__all__ = [
    "perm_tables",
]


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


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
