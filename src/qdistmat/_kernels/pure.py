"""Pure-Python implementations of the hot kernels.

Kernel inputs are coefficient sequences (lists or tuples, never modified):
little-endian by degree, plain Python ints, and canonical, so the last
entry is nonzero and the zero polynomial is empty.  Results are lists
in the same canonical form.  The compiled module ``_speedups``
(hand-written C) implements ``bareiss_det`` and ``perm_tables`` with
machine-word fast paths; results must be identical.

``bareiss_det`` does not eliminate over polynomials: it packs each entry
into one integer by Kronecker substitution (q = 2^b), runs integer
Bareiss, and reads the coefficients back as signed base-2^b digits, so
each elimination step is one big-integer multiply-subtract-divide instead
of schoolbook polynomial products and exact divisions.  Each step pivots
on the remaining entry of least bit length, which keeps the intermediates
of tree distance matrices narrow until the last steps.  Small matrices
are decoded at once at the Hadamard width, where decoding alone is
exact.  Large or wide ones take a narrow width b guessed from det M(1)
and certify the decoded determinant by evaluations at small integers,
widening b on a mismatch, with the Hadamard width of a row-reduced copy
of M as the last resort.  There a symmetric matrix, as every matrix of a
tree is, is eliminated on its upper triangle alone (``_sym_det``), half
the updates of ``_int_det``.  The proofs are in the docstrings of
``bareiss_det`` and ``_sym_det``.
"""

import itertools
import math
import operator

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
    fraction-free integer Bareiss elimination takes the determinant of the
    resulting integer matrix, and the determinant's coefficients are read
    back as the signed base-2^b digits P of the result.  The width that
    makes this exact comes from the Hadamard bound

        sq = prod_i sum_j ||M_ij||_1^2,   hbits = (bit_length(sq) + 1) // 2 + 2.

    For |z| = 1, |M_ij(z)| <= ||M_ij||_1, so by Hadamard's inequality
    |det M(z)| <= sqrt(sq); by Parseval every coefficient of det M is at
    most the maximum of |det M(z)| on the unit circle, hence below
    2^(hbits-1), and the digits at b = hbits are the coefficients.

    A matrix with hbits <= 32, the wide route's first width, is decoded at
    hbits at once by ``_int_det``, and so is one with hbits <= 64 whose
    packed entries are narrow (hbits times the longest entry at most 1024
    bits).  Any other matrix takes the wide route: long entries packed at
    hbits cost more to eliminate than a 32-bit decode and its certificate
    (D*_q at n = 20..24 has hbits 46-58 and entries of 23-37
    coefficients).  There each integer elimination is ``_sym_det`` if M
    is symmetric and ``_int_det`` otherwise.  ``_sym_det`` is exact
    because, by Sylvester's identity, the entry (x, y) after eliminating
    the index set K is det M[K + x, K + y], symmetric in x and y, and its
    swaps and its congruence (t times row and column b added to row and
    column a) act on trailing rows and columns of M, which keeps det M and
    every det M[K]; its docstring has the details.  The route first takes
    det M(1); for a matrix of constants (every entry of length <= 1) that
    is det M.  Otherwise it decodes at a narrow width
    b = max(32, bit_length(det M(1)) + 4) and certifies the result: it
    checks det M(a) == P(a) at a few small odd integers a
    (``_certified``).  On a mismatch b doubles; from b >= hbits on the
    kernel decodes at hbits, where decoding alone is exact.

    On the wide route sq becomes min(sq, sq'), with sq' the Hadamard bound
    of a row-reduced matrix LM.  ``_row_tree`` gives each row but a root r
    a parent row found before it; row i of LM is M_r for i = r and
    M_i - M_parent(i) otherwise.  Listed in the order they were found, L
    is unit lower triangular, so det LM = det M, and

        sq' = sum_j ||M_rj||_1^2 * prod_(i != r) sum_j ||M_ij - M_parent(i),j||_1^2

    bounds |det M(z)|^2 on the unit circle by the argument above, applied
    to LM.  Rows of a tree's distance matrices at adjacent vertices differ
    by one edge weight per entry, so sq' is far below sq: 85 against 152
    bits for D_q of ``random_tree(24, 4, 0)``.

    Why a passing check proves P = det M: R = P - det M vanishes at 2^b
    and at every checked a, so prod (q - a) divides R in Z[q].  The loop
    stops once the number of points exceeds max(deg P, sum_i max_j
    deg M_ij), which bounds deg R, or once the product of the |a| exceeds
    ||P||_2 + sqrt(sq).  If R were nonzero, Landau's inequality would give
    prod |a| <= M(R) <= ||R||_2 <= ||P||_2 + ||det M||_2 <= ||P||_2 + sqrt(sq),
    the last step by Parseval and Hadamard as above.  (Mignotte,
    *Mathematics for Computer Algebra* 4.4; von zur Gathen & Gerhard,
    *Modern Computer Algebra* ch. 6.)
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
    hbits = _width(sq)
    if hbits <= 32 or hbits <= 64 and hbits * _longest(rows) <= 1024:
        return _unpack(_int_det([[_pack(e, hbits) for e in row] for row in rows]), hbits)
    sym = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))
    at_one = _det_at(rows, sum, sym)
    if _longest(rows) < 2:
        return [at_one] if at_one else []
    sq = min(sq, _reduced_sq(rows))
    hbits = _width(sq)
    bits = max(32, at_one.bit_length() + 4)
    while bits < hbits:
        p = _unpack(_det_at(rows, lambda e: _pack(e, bits), sym), bits)
        if _certified(rows, p, bits, sq, sym):
            return p
        bits *= 2
    return _unpack(_det_at(rows, lambda e: _pack(e, hbits), sym), hbits)


def _longest(rows):
    return max(map(len, itertools.chain.from_iterable(rows)))


def _width(sq):
    # the decoding width at which every coefficient is below 2^(width-1)
    return (sq.bit_length() + 1) // 2 + 2


def _dist1(a, b):
    # ||a - b||_1 of two coefficient sequences
    if len(a) < len(b):
        a, b = b, a
    return sum(map(abs, map(operator.sub, a, b))) + sum(map(abs, a[len(b):]))


def _reduced_sq(rows):
    """sq' of ``bareiss_det``: the Hadamard bound of M with each row but the
    root replaced by its difference from its parent in ``_row_tree``, which
    joins the rows of M(1).  The root is the row of least sum_j ||M_ij||_1^2.
    """
    norms = [sum(sum(map(abs, e)) ** 2 for e in row) for row in rows]
    root = norms.index(min(norms))
    sq = norms[root]
    for i, p in enumerate(_row_tree([[sum(e) for e in row] for row in rows], root)):
        if p is not None:
            sq *= sum(_dist1(a, b) ** 2 for a, b in zip(rows[i], rows[p]))
    return sq


def _row_tree(ones, root):
    """Parent of each row in a spanning tree over the rows (None at ``root``).

    Prim's algorithm from ``root`` on the L1 distance between the rows of
    ``ones``: every row joins with the nearest row already in the tree as
    its parent, so a parent always joins before its children.
    """
    parent = [None] * len(ones)
    near = {i: (_dist1(ones[root], row), root) for i, row in enumerate(ones) if i != root}
    while near:
        v = min(near, key=near.get)
        parent[v] = near.pop(v)[1]
        for i, (d, _) in near.items():
            e = _dist1(ones[v], ones[i])
            if e < d:
                near[i] = (e, v)
    return parent


def _det_at(rows, value, sym):
    # det of the integer matrix (value(M_ij)); _sym_det reads only the
    # upper triangle, so a symmetric matrix is evaluated there alone
    if sym:
        return _sym_det([[0] * i + [value(e) for e in row[i:]] for i, row in enumerate(rows)])
    return _int_det([[value(e) for e in row] for row in rows])


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


def _sym_det(m):
    """Determinant of a symmetric integer matrix, by Bareiss elimination in place.

    Only the upper triangle m[x][y], x <= y, is read or written.  Step k
    pivots on the nonzero diagonal entry of the trailing block of least
    bit length, swapping index a into k.  If an off-diagonal entry s_ab
    is narrower still, a and b are swapped into k and k + 1 and t times
    row k + 1 is added to row k, and t times column k + 1 to column k,
    with t = +-1 chosen so that the new pivot s_kk + 2t*s_ab + s_bb is
    nonzero: the two choices differ by 4*s_ab != 0.  A step then updates
    only the trailing entries (x, y) with x <= y, half of what
    ``_int_det`` updates.  If the whole block is zero the determinant is
    zero; otherwise it is the last diagonal entry.

    Why this is exact: by Sylvester's identity, after eliminating the
    index set K the entry (x, y) is det M[K + x, K + y], which is symmetric
    in x and y for a symmetric M, so the lower triangle is the mirror of
    the upper.  Swapping indices x and y of the trailing block in both
    rows and columns is P M P^T, which keeps det M and det M[K]; the
    congruence is a row operation and the same column operation on
    trailing rows and columns of M, which keeps det M and det M[K] as
    well and keeps M symmetric.  Each is the same as applying it to M
    before the elimination, so every division by the previous pivot
    stays exact and no step changes the sign.
    """
    n = len(m)
    prev = 1
    for k in range(n - 1):
        best = a = b = 0
        for i in range(k, n):
            x = m[i][i]
            if x and (not best or x.bit_length() < best):
                best, a, b = x.bit_length(), i, i
        for i in range(k, n):
            if best == 1:
                break
            row = m[i]
            for j in range(i + 1, n):
                x = row[j]
                if x and (not best or x.bit_length() < best):
                    best, a, b = x.bit_length(), i, j
        if not best:
            return 0
        if a != k:
            _sym_swap(m, k, a)
        if b != a:
            if b != k + 1:
                _sym_swap(m, k + 1, b)
            rowk, row1 = m[k], m[k + 1]
            s, d = rowk[k + 1], row1[k + 1]
            t = 1 if rowk[k] + 2 * s + d else -1
            rowk[k] += 2 * t * s + d
            rowk[k + 1] = s + t * d
            for y in range(k + 2, n):
                rowk[y] += t * row1[y]
        rowk = m[k]
        piv = rowk[k]
        for i in range(k + 1, n):
            rowi = m[i]
            rik = rowk[i]
            rowi[i:] = [(piv * x - rik * y) // prev for x, y in zip(rowi[i:], rowk[i:])]
        prev = piv
    return m[n - 1][n - 1]


def _sym_swap(m, k, p):
    # exchange indices k < p in the rows and columns of a symmetric matrix
    # stored as its upper triangle
    for row in m[:k]:
        row[k], row[p] = row[p], row[k]
    rowk, rowp = m[k], m[p]
    rowk[k], rowp[p] = rowp[p], rowk[k]
    for y in range(k + 1, p):
        rowy = m[y]
        rowk[y], rowy[p] = rowy[p], rowk[y]
    for y in range(p + 1, len(m)):
        rowk[y], rowp[y] = rowp[y], rowk[y]


def _certified(rows, p, bits, sq, sym):
    """Whether p is det M, given that p(2^bits) == det M(2^bits).

    Checks det M(a) == p(a) at the ``_check_points`` until the points,
    2^bits among them, outnumber the degree bound or their product
    exceeds isqrt(||p||_2^2) + isqrt(sq) + 2 > ||p||_2 + sqrt(sq), where
    sq bounds ||det M||_2^2; see ``bareiss_det`` for why that suffices.
    Each det M(a) is taken by ``_sym_det`` if ``sym``, else ``_int_det``.
    """
    degree = max(len(p) - 1, sum(max(map(len, row)) - 1 for row in rows))
    bound = math.isqrt(sum(c * c for c in p)) + math.isqrt(sq) + 2
    points, prod = 1, 1 << bits
    for a in _check_points(rows):
        if points > degree or prod > bound:
            return True
        if _det_at(rows, lambda e: _eval(e, a), sym) != _eval(p, a):
            return False
        points += 1
        prod *= abs(a)


def _check_points(rows):
    """The points a = 2^s + 1, -(2^s + 1), 2^s + 3, -(2^s + 3), ...

    They are odd, hence distinct from each other and from any 2^b.  s is
    at least 6 and as large as keeps an evaluated entry near 256 bits,
    where a big-integer operation still costs about as much as the
    interpreter's own overhead, so fewer, wider points are cheaper.
    """
    a = (1 << max(6, 256 // max(max(map(len, row)) for row in rows))) + 1
    while True:
        yield a
        yield -a
        a += 2


def _pack(coeffs, bits):
    # value at q = 2^bits, by shift-Horner
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def _eval(coeffs, a):
    # value at q = a, by Horner
    v = 0
    for c in reversed(coeffs):
        v = v * a + c
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
