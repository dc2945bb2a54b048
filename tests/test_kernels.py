"""Kernels: backend parity, the dispatcher, and the pure Bareiss kernel
against independent routes.

The compiled tests take the ``speedups`` fixture (``conftest.py``), which
builds the extension from source once per test run.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, zip_longest

import pytest

from qdistmat import _kernels, closedforms, permlab
from qdistmat._kernels import BACKEND, pure
from qdistmat.exactdet import det_cofactor
from qdistmat.identities import identity_suite
from qdistmat.polyring import Poly
from qdistmat.qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star
from qdistmat.treekit import (
    all_pairs_distances, enumerate_trees, from_edges, path_tree, random_tree, star_tree,
)

COMPILED = ("bareiss_det", "perm_tables")


def canon(items):
    out = list(items)
    while out and out[-1] == 0:
        out.pop()
    return out


def random_coeffs(rng, max_len=8, bound=60):
    return canon(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_len)))


def test_backend_reported():
    assert BACKEND in ("compiled", "pure")


def test_compiled_module_exports_the_dispatched_kernels(speedups):
    exported = {name for name in dir(speedups) if not name.startswith("_")}
    dispatched = {name for name in _kernels.__all__
                  if getattr(getattr(_kernels, name), "__module__", None) == _kernels.__name__}
    assert exported == dispatched == set(COMPILED)


def test_bareiss_parity(speedups):
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = [[random_coeffs(rng, 3, 9) for _ in range(n)] for _ in range(n)]
        assert speedups.bareiss_det(rows) == pure.bareiss_det(rows)


def test_bareiss_overflow_falls_back(speedups):
    big = 10 ** 25
    rows = [[[big], [1]], [[1], [big]]]
    assert speedups.bareiss_det(rows) is None
    assert pure.bareiss_det(rows) == [big * big - 1]


def test_bareiss_unnegatable_determinant_falls_back(speedups):
    # a column swap negates a final pivot of -2^63, which has no 64-bit negation
    rows = [[[0], [-2 ** 62]], [[2], [5]]]
    assert speedups.bareiss_det(rows) is None
    assert pure.bareiss_det(rows) == [2 ** 63]


def test_bareiss_rejects_bad_shapes(speedups):
    with pytest.raises(ValueError):
        speedups.bareiss_det([])
    with pytest.raises(ValueError):
        speedups.bareiss_det([[[1]], [[1], [2]]])


def test_perm_tables_parity(speedups):
    rng = random.Random(4)
    for n in range(1, 8):
        for _ in range(12 if n < 7 else 3):
            dist = [[rng.choice([0, rng.randint(0, 6)]) for _ in range(n)] for _ in range(n)]
            assert speedups.perm_tables(dist, n) == pure.perm_tables(dist, n), dist
    for seed in range(2):
        dist = all_pairs_distances(random_tree(8, 4, seed))
        assert speedups.perm_tables(dist, 8) == pure.perm_tables(dist, 8), seed


def test_perm_tables_declines(monkeypatch, speedups):
    monkeypatch.setattr(_kernels, "_speedups", speedups)
    # a histogram as wide as these distances is past the C kernel's span
    # cap; the pure kernel's dense answer would be as wide, so only the
    # decline is checked here
    assert speedups.perm_tables([[0, 10 ** 9], [10 ** 9, 0]], 2) is None
    # the empty table is outside the C kernel's range, and the dispatcher
    # answers with the pure kernel's empty product
    assert speedups.perm_tables([], 0) is None
    assert _kernels.perm_tables([], 0) == ([1], [1])


def test_perm_tables_short_table_raises(speedups):
    for kernel in (speedups.perm_tables, pure.perm_tables):
        with pytest.raises(IndexError):
            kernel([[0, 1]], 2)


def test_perm_tables_negative_entry_raises(monkeypatch, speedups):
    # a negative length would index the histograms from their end: the C
    # kernel declines, and the pure one raises
    monkeypatch.setattr(_kernels, "_speedups", speedups)
    assert speedups.perm_tables([[0, -1], [2, 0]], 2) is None
    with pytest.raises(ValueError):
        _kernels.perm_tables([[0, -1], [2, 0]], 2)


@pytest.mark.parametrize("t", [
    path_tree(5, [1, 1, 1, 1]),
    star_tree(4, [2, 1, 3]),
    random_tree(6, 1, 2),
    random_tree(7, 4, 3),
    random_tree(8, 3, 4),
    # leaf pair (2, 6): the corner minor is a cofactor of sign -1
    from_edges(6, [(1, 2, 2), (1, 3, 1), (3, 4, 3), (4, 5, 1), (5, 6, 2)]),
], ids=["path5", "star4-weighted", "unit6", "weighted7", "weighted8", "leaves2-6"])
def test_dispatcher_compiled_matches_pure(monkeypatch, speedups, t):
    monkeypatch.setattr(_kernels, "_speedups", None)
    want = identity_suite(t)
    # count the calls the compiled module answers, rebinding its attributes
    # the way the benchmark's tracer does
    answered = Counter()
    for name in COMPILED:
        def counted(*args, fn=getattr(speedups, name), name=name):
            r = fn(*args)
            answered[name] += r is not None
            return r

        monkeypatch.setattr(speedups, name, counted)
    monkeypatch.setattr(_kernels, "_speedups", speedups)
    assert identity_suite(t) == want
    assert all(answered[name] for name in COMPILED), answered


def test_dispatcher_falls_back_to_pure(monkeypatch, speedups):
    monkeypatch.setattr(_kernels, "_speedups", speedups)
    big = 10 ** 25
    rows = [[[big], [1]], [[1], [big]]]
    assert speedups.bareiss_det(rows) is None
    assert _kernels.bareiss_det(rows) == pure.bareiss_det(rows) == [big * big - 1]


def test_pure_bareiss_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pure.bareiss_det([])
    with pytest.raises(ValueError):
        pure.bareiss_det([[[1]], [[1], [2]]])


# -- pure bareiss_det: Kronecker substitution against independent routes ----


def cofactor_det(rows):
    return list(det_cofactor(rows).coeffs)


def test_pure_bareiss_matches_cofactor():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[canon(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 11)))
                 for _ in range(n)] for _ in range(n)]
        assert pure.bareiss_det(rows) == cofactor_det(rows), rows


def sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def fraction_det(a):
    # Gaussian elimination over the rationals: an independent integer route
    a = [[Fraction(x) for x in row] for row in a]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


@pytest.mark.parametrize("order", [4, 8])
def test_pure_bareiss_at_hadamard_bound(order):
    # |det| of a +-1 Hadamard matrix is order^(order/2), exactly the
    # Hadamard bound the packing width is derived from
    h = sylvester(order)
    want = fraction_det(h)
    assert abs(want) == order ** (order // 2)
    assert pure.bareiss_det([[[x] for x in row] for row in h]) == [want]
    # +-q^(r_i + c_j) scales det by q^(sum r + sum c), coefficient unchanged
    rng = random.Random(order)
    r = [rng.randint(0, 3) for _ in range(order)]
    c = [rng.randint(0, 3) for _ in range(order)]
    rows = [[[0] * (r[i] + c[j]) + [h[i][j]] for j in range(order)] for i in range(order)]
    assert pure.bareiss_det(rows) == [0] * (sum(r) + sum(c)) + [want]
    if order <= 6:
        assert pure.bareiss_det(rows) == cofactor_det(rows)


@pytest.mark.parametrize("rows, det", [
    ([[[1, 2], [3]], [[], []]], []),  # zero row
    ([[[1], [2], [3]], [[2], [4], [6]], [[1], [], [1]]], []),  # a zero row after one step
    ([[[1], [1, 1]], [[1, 1], [1, 2, 1]]], []),  # rank one over Z[q]
    ([[[3, -1]]], [3, -1]),
    ([[[]]], []),
    ([[[], [1, 1]], [[2], [0, 3]]], [-2, -2]),  # zero diagonal: the first pivot is in row 2
    ([[[], [1], [2]], [[1], [], [1]], [[2], [1], []]], [4]),
])
def test_pure_bareiss_edge_cases(rows, det):
    assert pure.bareiss_det(rows) == det
    assert cofactor_det(rows) == det


# -- pure _int_det: pivoting on the entry of least bit length ---------------


def perm_sign(p):
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def int_matrices(rng):
    # (kind, matrix) pairs of order 1..8 whose entries span 0 to 40 bits,
    # so the pivot rule both swaps and skips zeros
    def entry():
        return rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-2 ** 40, 2 ** 40)])

    for n in range(1, 9):
        for _ in range(12):
            m = [[entry() for _ in range(n)] for _ in range(n)]
            yield "random", m
            yield "zero diagonal", [[0 if i == j else x for j, x in enumerate(row)]
                                    for i, row in enumerate(m)]
            i, j = rng.randrange(n), rng.randrange(n)
            yield "zero row", [[0] * n if r == i else row for r, row in enumerate(m)]
            yield "zero column", [[0 if c == j else x for c, x in enumerate(row)] for row in m]
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                yield "equal rows", [m[i] if r == j else row for r, row in enumerate(m)]
            # rank r <= n - 2: the trailing block is zero after step r
            r = rng.randint(0, max(0, n - 2))
            a = [[entry() for _ in range(r)] for _ in range(n)]
            b = [[entry() for _ in range(n)] for _ in range(r)]
            yield f"rank {r}", [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
                                for i in range(n)]


def test_int_det_matches_fraction_det():
    for kind, m in int_matrices(random.Random(10)):
        assert pure._int_det([row[:] for row in m]) == fraction_det(m), (kind, m)


def test_int_det_under_row_and_column_permutations():
    # the orders move the zeros and the 1-bit entries the rule picks first
    m = [[0, 1, 6, 40], [3, 0, 2, 17], [9, 5, 0, 1], [100, 7, 4, 0]]
    det = fraction_det(m)
    assert det
    for p in permutations(range(4)):
        for q in permutations(range(4)):
            pmq = [[m[p[i]][q[j]] for j in range(4)] for i in range(4)]
            assert pure._int_det(pmq) == perm_sign(p) * perm_sign(q) * det, (p, q)


# -- pure _sym_det: symmetric elimination on the upper triangle -------------


def t_forcing_block(rng):
    # [[x, -s], [-s, 2s - x]]: the off-diagonal s is narrower than both
    # diagonal entries, and s_aa + 2 s_ab + s_bb = 0, so only t = -1 gives
    # a nonzero pivot
    s = rng.choice([1, -1, 2, -3])
    x = rng.choice([9, -13, 2 ** 20])
    return [[x, -s], [-s, 2 * s - x]]


def symmetric_matrices(rng):
    # (kind, matrix) pairs of order 1..8 whose entries span 0 to 40 bits
    def entry():
        return rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-2 ** 40, 2 ** 40)])

    def symmetric(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = entry()
        return m

    for n in range(1, 9):
        for _ in range(12):
            m = symmetric(n)
            yield "random", m
            yield "zero diagonal", [[0 if i == j else x for j, x in enumerate(row)]
                                    for i, row in enumerate(m)]
            i = rng.randrange(n)
            yield "zero row", [[0 if i in (r, c) else x for c, x in enumerate(row)]
                               for r, row in enumerate(m)]
            # A diag(c) A^T of rank r <= n - 2: the trailing block is zero
            # after step r
            r = rng.randint(0, max(0, n - 2))
            a = [[entry() for _ in range(r)] for _ in range(n)]
            c = [entry() for _ in range(r)]
            yield f"rank {r}", [[sum(a[i][k] * c[k] * a[j][k] for k in range(r))
                                 for j in range(n)] for i in range(n)]
            if n >= 3:
                # a t-forcing block among wide entries, at a random place
                big = [[x * 2 ** 50 + 2 ** 49 for x in row] for row in symmetric(n)]
                a, b = rng.sample(range(n), 2)
                block = t_forcing_block(rng)
                for u, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    big[(a, b)[u]][(a, b)[v]] = block[u][v]
                yield "t = -1 block", big


def test_sym_det_matches_int_det():
    for kind, m in symmetric_matrices(random.Random(14)):
        want = fraction_det(m)
        assert pure._int_det([row[:] for row in m]) == want, (kind, m)
        assert pure._sym_det([row[:] for row in m]) == want, (kind, m)


@pytest.mark.parametrize("x", [5, -7, 2 ** 20])
def test_sym_det_takes_t_minus_one(x):
    # the first step meets [[x, 1], [1, -2 - x]] with nothing narrower on the
    # diagonal: t = +1 would pivot on zero and divide by it in the next step
    m = [[x, 1, 0, 3 * x], [1, -2 - x, 2 * x, 0], [0, 2 * x, 4 * x, x], [3 * x, 0, x, -x]]
    assert pure._sym_det([row[:] for row in m]) == fraction_det(m) != 0


def test_sym_det_reads_only_the_upper_triangle():
    rng = random.Random(15)
    for kind, m in symmetric_matrices(rng):
        upper = [[x if j >= i else None for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert pure._sym_det(upper) == fraction_det(m), (kind, m)


# -- pure bareiss_det: the row-reduced Hadamard bound ------------------------


def norm_sq(coeffs):
    return sum(c * c for c in coeffs)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 30])
def test_reduced_bound_covers_tree_determinants(n):
    for seed in range(3):
        t = random_tree(n, 4, seed)
        ws = t.weights
        for build, closed in ((build_d, Poly([closedforms.bkn_det(ws)])),
                              (build_d_plus_xJ, closedforms.bkn_det_xj(ws)),
                              (build_dq_star, closedforms.dq_star_closed(ws)),
                              (build_dq, closedforms.dq_closed(ws))):
            assert pure._reduced_sq(build(t)) >= norm_sq(closed.coeffs), (n, seed, build.__name__)


def near_duplicate_rows(rng, n):
    # random polynomial rows, one of them a small change of another: the row
    # tree joins the pair, and any bound that drops the larger row's norm
    # falls below ||det||^2
    rows = [[random_coeffs(rng, 5, 10 ** 6) for _ in range(n)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[j] = [canon(a + b for a, b in zip_longest(e, random_coeffs(rng, 2, 3), fillvalue=0))
               for e in rows[i]]
    return rows


def test_reduced_bound_covers_random_determinants():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[random_coeffs(rng, 6, 50) for _ in range(n)] for _ in range(n)]
        assert pure._reduced_sq(rows) >= norm_sq(cofactor_det(rows)), rows
        if n >= 2:
            rows = near_duplicate_rows(rng, n)
            assert pure._reduced_sq(rows) >= norm_sq(cofactor_det(rows)), rows


def test_row_tree_is_a_tree_rooted_at_root():
    # each row reaches the root through its parents, so L is unit triangular
    # in the order the rows join; two rows that are each other's parent
    # would make it singular
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 9)
        ones = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        for i, j in rng.sample([(a, b) for a in range(n) for b in range(n) if a != b],
                               min(2, n * (n - 1))):
            ones[j] = ones[i][:]
        root = rng.randrange(n)
        parent = pure._row_tree(ones, root)
        assert parent[root] is None
        for i in range(n):
            seen = {i}
            while i != root:
                i = parent[i]
                assert i is not None and i not in seen, parent
                seen.add(i)


def test_reduced_bound_cuts_the_check_points(monkeypatch):
    # D_q of random_tree(24, 4, 0): the certificate of the 58-bit decode
    # takes 13 evaluations against the Hadamard bound and 4 against the
    # reduced one
    rows = build_dq(random_tree(24, 4, 0))
    p = pure.bareiss_det(rows)
    sq, sq_reduced = hadamard_sq(rows), pure._reduced_sq(rows)
    assert sq_reduced.bit_length() < sq.bit_length() - 100
    evaluations = []
    for bound in (sq, sq_reduced):
        calls = Counter()
        with monkeypatch.context() as m:
            counting(m, calls, "_det_at")
            assert pure._certified(rows, p, 58, bound, True)
        evaluations.append(calls["_det_at"])
    assert evaluations == [13, 4]


def test_certificate_against_the_reduced_bound_rejects_forgeries():
    # a forgery that agrees at 2^32 and at every check point the true
    # determinant's certificate uses must still meet one where it differs
    rows = build_dq(random_tree(9, 3, 1))
    p, sq = pure.bareiss_det(rows), pure._reduced_sq(rows)
    assert sq < hadamard_sq(rows)
    assert pure._certified(rows, p, 32, sq, True)
    for k in range(1, 6):
        bad = forged(p, [2 ** 32, *islice(pure._check_points(rows), k)])
        assert not pure._certified(rows, bad, 32, sq, True), k


# -- pure bareiss_det: which matrices take the wide route --------------------


def test_small_unit_weight_matrices_take_the_direct_path(monkeypatch):
    # every determinant identity_suite takes for n <= 6 with unit weights is
    # one _int_det at the Hadamard width, as before the wide route existed,
    # except on a matrix with a zero row, which needs none
    dets = Counter()

    def bareiss_det(rows):
        dets["bareiss_det"] += 1
        dets["zero row"] += not all(map(any, rows))
        return pure.bareiss_det(rows)

    monkeypatch.setattr(_kernels, "bareiss_det", bareiss_det)
    monkeypatch.setattr(permlab, "perm_tables", lambda t: (Poly(), Poly()))
    counting(monkeypatch, dets, "_int_det", "_sym_det", "_certified", "_reduced_sq")
    for n in range(2, 7):
        for t in enumerate_trees(n):
            identity_suite(t)
    calls, zero = dets.pop("bareiss_det"), dets.pop("zero row")
    assert calls > 9 * 1296
    assert dets == {"_int_det": calls - zero}


def test_wide_entries_take_the_narrow_route(monkeypatch):
    # D*_q of random_tree(24, 4, 0) has a Hadamard width below 64 bits but
    # entries of up to 37 coefficients: it decodes at 32 bits, certified
    t = random_tree(24, 4, 0)
    rows = build_dq_star(t)
    assert (hadamard_sq(rows).bit_length() + 1) // 2 + 2 <= 64
    widths = []

    def certified(rows, p, bits, *args, real=pure._certified):
        widths.append(bits)
        return real(rows, p, bits, *args)

    monkeypatch.setattr(pure, "_certified", certified)
    assert pure.bareiss_det(rows) == list(closedforms.dq_star_closed(t.weights).coeffs)
    assert widths == [32]


@pytest.mark.parametrize("n", range(20, 25))
def test_pure_bareiss_independent_of_vertex_order(n):
    # conjugating by a vertex permutation leaves the determinant as it is
    # but changes which of the tied entries the pivot rule takes
    t = random_tree(n, 4, 0)
    order = random.Random(n).sample(range(n), n)
    for build, closed in ((build_dq, closedforms.dq_closed),
                          (build_dq_star, closedforms.dq_star_closed)):
        rows = build(t)
        conj = [[rows[i][j] for j in order] for i in order]
        want = list(closed(t.weights).coeffs)
        assert pure.bareiss_det(rows) == pure.bareiss_det(conj) == want, build.__name__


# -- pure bareiss_det: narrow decoding, its certificate, and widening ---------


def scale_first_row(rows, factor):
    return [[[c * factor for c in e] for e in rows[0]]] + rows[1:]


def hadamard_sq(rows):
    return math.prod(sum(sum(map(abs, e)) ** 2 for e in row) for row in rows)


def counting(monkeypatch, calls, *names):
    # rebind pure's helpers so that calls[name] counts the calls of each
    for name in names:
        def counted(*args, fn=getattr(pure, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(pure, name, counted)


def test_pure_bareiss_takes_constant_matrices_in_one_elimination(monkeypatch):
    # D at n = 24 is past the 64-bit Hadamard width; det M(1) is det M
    t = random_tree(24, 4, 0)
    calls = Counter()
    counting(monkeypatch, calls, "_int_det", "_sym_det")
    rows = build_d(t)
    assert (hadamard_sq(rows).bit_length() + 1) // 2 + 2 > 64
    assert pure.bareiss_det(rows) == [closedforms.bkn_det(t.weights)]
    assert calls == {"_sym_det": 1}


def test_pure_bareiss_widens_after_failed_certificates(monkeypatch):
    # det D*_q(1) = 0 puts the first width at 32 bits, and the scaled row
    # puts every coefficient of the determinant past 2^80
    t = random_tree(22, 4, 5)
    rows = scale_first_row(list(build_dq_star(t)), 2 ** 80)
    verdicts = []

    def certified(rows, p, bits, *args, real=pure._certified):
        verdicts.append((bits, real(rows, p, bits, *args)))
        return verdicts[-1][1]

    monkeypatch.setattr(pure, "_certified", certified)
    want = [2 ** 80 * c for c in closedforms.dq_star_closed(t.weights).coeffs]
    assert pure.bareiss_det(rows) == want
    assert verdicts == [(32, False), (64, False), (128, True)]


def test_pure_bareiss_widening_matches_cofactor():
    for n in range(2, 7):
        rows = scale_first_row(list(build_dq_star(random_tree(n, 4, n))), 2 ** 80)
        assert pure.bareiss_det(rows) == cofactor_det(rows), n
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[random_coeffs(rng, 4, 30) for _ in range(n)] for _ in range(n)]
        # a first row divisible by q - 1 makes det M(1) = 0 as well
        rows[0] = [list((Poly(e) * Poly([-2 ** 80, 2 ** 80])).coeffs) for e in rows[0]]
        assert pure.bareiss_det(rows) == cofactor_det(rows), rows


def forged(p, roots):
    # p + prod (q - r): equal to p exactly at the roots
    r = Poly([1])
    for x in roots:
        r = r * Poly([-x, 1])
    return canon(a + b for a, b in zip_longest(p, r.coeffs, fillvalue=0))


SMALL_POLY_MATRICES = {
    "general": [[[1, 2], [3, -1], [0, 1]], [[2], [1, 1], [5]], [[-1, 1], [4], [2, 3]]],
    "symmetric": [[[1, 2], [3, -1], [0, 1]], [[3, -1], [1, 1], [5]], [[0, 1], [5], [2, 3]]],
}


def test_certificate_needs_more_points_than_the_degree():
    # linear entries bound deg det by 3; a forgery of degree k + 1 that
    # agrees at 2^32 and the first k check points must meet point k + 1
    for kind, rows in SMALL_POLY_MATRICES.items():
        sym = kind == "symmetric"
        p, sq = cofactor_det(rows), hadamard_sq(rows)
        assert pure._certified(rows, p, 32, sq, sym)
        for k in (2, 3):  # a quartic forgery: the count follows deg p, not 3
            bad = forged(p, [2 ** 32, *islice(pure._check_points(rows), k)])
            assert len(bad) - 1 == k + 1
            assert not pure._certified(rows, bad, 32, sq, sym), kind


def test_certificate_needs_a_product_above_the_norm_bound():
    # entries of degree 12 leave the degree bound far off, so the product
    # of the points ends the checks; a forgery that agrees at 2^32 and the
    # first three check points must meet the fourth
    rng = random.Random(12)
    rows = [[[rng.randint(-30, 30) for _ in range(12)] + [1] for _ in range(3)]
            for _ in range(3)]
    p, sq = cofactor_det(rows), hadamard_sq(rows)
    bad = forged(p, [2 ** 32, *islice(pure._check_points(rows), 3)])
    assert pure._certified(rows, p, 32, sq, False)
    assert not pure._certified(rows, bad, 32, sq, False)


def test_check_points_are_distinct_odd_integers():
    for rows in ([[[1]]], [[[1, 1]]], [[[0] * 40 + [1]]]):
        pts = list(islice(pure._check_points(rows), 50))
        assert len(set(pts)) == 50
        assert all(a % 2 and abs(a) > 64 for a in pts)
