"""Kernels: backend parity, the dispatcher, and the pure Bareiss kernel
against independent routes.

The compiled tests take the ``speedups`` fixture (``conftest.py``), which
builds the extension from source once per test run.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qdistmat import _kernels
from qdistmat._kernels import BACKEND, pure
from qdistmat.exactdet import det_cofactor
from qdistmat.identities import identity_suite
from qdistmat.polyring import Poly
from qdistmat.qmatrix import PolyMatrix
from qdistmat.treekit import path_tree, random_tree, star_tree

COMPILED = ("poly_mul", "bareiss_det", "perm_n_table", "perm_m_coeffs")


def canon(items):
    out = list(items)
    while out and out[-1] == 0:
        out.pop()
    return out


def random_coeffs(rng, max_len=8, bound=60):
    return canon(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_len)))


def test_backend_reported():
    assert BACKEND in ("compiled", "pure")


def test_poly_mul_parity(speedups):
    rng = random.Random(1)
    for _ in range(1000):
        a, b = random_coeffs(rng), random_coeffs(rng)
        assert speedups.poly_mul(a, b) == pure.poly_mul(a, b), (a, b)


def test_poly_mul_overflow_falls_back(speedups):
    big = [2 ** 62, 1]
    assert speedups.poly_mul(big, big) is None
    assert pure.poly_mul(big, big) == [2 ** 124, 2 ** 63, 1]


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


def test_perm_table_parity(speedups):
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 6)
        dist = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
        assert speedups.perm_n_table(dist, n) == pure.perm_n_table(dist, n)
        assert speedups.perm_m_coeffs(dist, n) == pure.perm_m_coeffs(dist, n)
    for _ in range(30):
        n = rng.randint(1, 5)
        dist = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert speedups.perm_n_table(dist, n) == pure.perm_n_table(dist, n)


def test_perm_m_bound_guard(speedups):
    # distances this large make the coefficient buffers unreasonable, so
    # the compiled kernel declines and the pure path takes over
    dist = [[0, 10 ** 9], [10 ** 9, 0]]
    assert speedups.perm_m_coeffs(dist, 2) is None


def test_perm_short_table_raises(speedups):
    with pytest.raises(IndexError):
        speedups.perm_n_table([[0, 1]], 2)
    with pytest.raises(IndexError):
        speedups.perm_m_coeffs([[0, 1]], 2)


@pytest.mark.parametrize("t", [
    path_tree(5, [1, 1, 1, 1]),
    star_tree(4, [2, 1, 3]),
    random_tree(6, 1, 2),
    random_tree(7, 4, 3),
    random_tree(8, 3, 4),
], ids=["path5", "star4-weighted", "unit6", "weighted7", "weighted8"])
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


def test_pure_kernel_division_errors():
    with pytest.raises(ZeroDivisionError):
        pure.poly_exact_div([1], [])
    with pytest.raises(ValueError):
        pure.poly_exact_div([1, 2], [3, 3])


def test_pure_bareiss_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pure.bareiss_det([])
    with pytest.raises(ValueError):
        pure.bareiss_det([[[1]], [[1], [2]]])


# -- pure bareiss_det: Kronecker substitution against independent routes ----


def cofactor_det(rows):
    m = PolyMatrix([[Poly(e) for e in row] for row in rows])
    return list(det_cofactor(m).coeffs)


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
    ([[[1], [2], [3]], [[2], [4], [6]], [[1], [], [1]]], []),  # pivot row dies
    ([[[1], [1, 1]], [[1, 1], [1, 2, 1]]], []),  # rank one over Z[q]
    ([[[3, -1]]], [3, -1]),
    ([[[]]], []),
    ([[[], [1, 1]], [[2], [0, 3]]], [-2, -2]),  # zero first pivot: column swap
    ([[[], [1], [2]], [[1], [], [1]], [[2], [1], []]], [4]),
])
def test_pure_bareiss_edge_cases(rows, det):
    assert pure.bareiss_det(rows) == det
    assert cofactor_det(rows) == det
