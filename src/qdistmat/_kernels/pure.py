"""Pure-Python implementations of the hot kernels.

Coefficient lists are little-endian by degree, hold plain Python ints, and
are canonical: the last entry is nonzero, the zero polynomial is ``[]``.
The compiled module ``_speedups`` (hand-written C) implements
``poly_mul``, ``bareiss_det``, ``perm_n_table`` and ``perm_m_coeffs`` with
machine-word fast paths; results must be identical.  ``poly_exact_div`` is
pure only.

``bareiss_det`` does not eliminate over polynomials: it packs each entry
into one integer by Kronecker substitution (q = 2^B, with B from a
Hadamard bound that covers every minor), runs integer Bareiss, and reads
the coefficients back as signed base-2^B digits, so each elimination step
is one big-integer multiply-subtract-divide instead of schoolbook
polynomial products and exact divisions.
"""

import itertools

__all__ = [
    "poly_mul",
    "poly_exact_div",
    "bareiss_det",
    "perm_n_table",
    "perm_m_coeffs",
]


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


def poly_mul(a, b):
    """Convolution product of two canonical coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out  # leading product of nonzeros is nonzero over the integers


def poly_exact_div(a, b):
    """Exact quotient a / b in the integer polynomial ring.

    Raises ZeroDivisionError if b is zero, ValueError if b does not divide
    a exactly (which callers treat as an internal invariant violation).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ValueError("not exactly divisible")
    rem = list(a)
    lead = b[-1]
    quot = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        if c:
            coef, r = divmod(c, lead)
            if r:
                raise ValueError("not exactly divisible")
            quot[k] = coef
            for j in range(db + 1):
                rem[k + j] -= coef * b[j]
    if any(rem):
        raise ValueError("not exactly divisible")
    return quot


def bareiss_det(rows):
    """Exact determinant of a square matrix of coefficient lists.

    Kronecker substitution: every entry is evaluated at q = 2^B, one
    fraction-free Bareiss elimination runs on the resulting integers, and
    the determinant's coefficients are read back as the signed base-2^B
    digits of the result.  B comes from a bound on the coefficients of
    every minor of the matrix:

        sq = prod_i sum_j ||M_ij||_1^2,   B = (bit_length(sq) + 1) // 2 + 2.

    For |z| = 1, |M_ij(z)| <= ||M_ij||_1, so by Hadamard's inequality
    |det M(z)| <= sqrt(sq); by Parseval every coefficient of det M is at
    most the maximum of |det M(z)| on the unit circle, hence below
    2^(B-1).  With no zero row each row factor is at least 1, so the same
    bound covers every minor, and thus every intermediate Bareiss entry
    (each is a minor, by the Sylvester identity).  A polynomial whose
    coefficients lie below 2^(B-1) in absolute value is zero exactly when
    its value at 2^B is, so the zero-pivot tests, and with them the
    column swaps, are those of elimination over polynomials.  A zero
    pivot is repaired by swapping in the first column to its right whose
    entry in the pivot row is nonzero (sign tracked); if the whole pivot
    row is zero the determinant is zero.  Every division is by the
    previous pivot and is exact.
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
    m = [[_pack(e, bits) for e in row] for row in rows]
    sign = 1
    prev = 1  # pivot of the previous step; the first step divides by 1
    for k in range(n - 1):
        rowk = m[k]
        if not rowk[k]:
            for j in range(k + 1, n):
                if rowk[j]:
                    for row in m:
                        row[k], row[j] = row[j], row[k]
                    sign = -sign
                    break
            else:
                return []
        piv = rowk[k]
        for i in range(k + 1, n):
            rowi = m[i]
            rik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (piv * rowi[j] - rik * rowk[j]) // prev
        prev = piv
    return _unpack(sign * m[n - 1][n - 1], bits)


def _pack(coeffs, bits):
    # value at q = 2^bits, by shift-Horner
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def _unpack(v, bits):
    # signed base-2^bits digits of v, each in [-2^(bits-1), 2^(bits-1))
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> bits
    return out


_SIGN_CACHE = {}


def _perm_signs(n):
    # parity of every permutation of range(n) in lexicographic order
    signs = _SIGN_CACHE.get(n)
    if signs is None:
        signs = bytearray()
        for p in itertools.permutations(range(n)):
            inv = 0
            for i in range(n):
                pi = p[i]
                for j in range(i + 1, n):
                    if pi > p[j]:
                        inv += 1
            signs.append(inv & 1)
        signs = bytes(signs)
        _SIGN_CACHE[n] = signs
    return signs


def perm_n_table(dist, n):
    """Signed histogram of permutation lengths sum_i d(i, p(i)).

    Returns a dict mapping each attained length to the even-minus-odd
    signed count, zero entries omitted.
    """
    signs = _perm_signs(n)
    table = {}
    for idx, p in enumerate(itertools.permutations(range(n))):
        s = 0
        for i in range(n):
            s += dist[i][p[i]]
        table[s] = table.get(s, 0) + (-1 if signs[idx] else 1)
    return {k: v for k, v in table.items() if v}


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


def perm_m_coeffs(dist, n):
    """Signed sum over permutations of products of all-ones polynomials.

    Term for p is sgn(p) * prod_i (1 + q + ... + q^(d(i,p(i))-1)); any zero
    distance kills the term, which subsumes the fixed-point rule for
    genuine distance tables.  Returns a canonical coefficient list.
    """
    signs = _perm_signs(n)
    acc = []
    for idx, p in enumerate(itertools.permutations(range(n))):
        widths = []
        ok = True
        for i in range(n):
            d = dist[i][p[i]]
            if d == 0:
                ok = False
                break
            widths.append(d)
        if not ok:
            continue
        prod = [1]
        for w in widths:
            if w > 1:
                prod = _ones_mul(prod, w)
        if len(prod) > len(acc):
            acc.extend([0] * (len(prod) - len(acc)))
        if signs[idx]:
            for k, c in enumerate(prod):
                acc[k] -= c
        else:
            for k, c in enumerate(prod):
                acc[k] += c
    return _trim(acc)
