"""Kernels: the permutation sweep's backend parity and dispatch, and the
one elimination (``exactdet.bareiss_det``) against independent routes.

The compiled tests take the ``speedups`` fixture (``conftest.py``), which
builds the extension from source once per test run.
"""

import math
import os
import random
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations
from pathlib import Path

import pytest

from qdistmat import closedforms, exactdet, permlab
from qdistmat.exactdet import bareiss_det, det_cofactor
from qdistmat.identities import identity_suite
from qdistmat.polyring import Poly
from qdistmat.qmatrix import build_d, build_dq, build_dq_star
from qdistmat.treekit import (
    all_pairs_distances, from_edges, path_tree, random_tree, star_tree,
)

COMPILED = ("perm_tables",)
PACKAGE = Path(permlab.__file__).resolve().parent


def canon(items):
    out = list(items)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_coeffs(rng, max_len=8, bound=60):
    return canon(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_len)))


def int64(dist):
    # the table as the C sweep takes it: one buffer of n * n int64, row by row
    return array("q", chain.from_iterable(dist))


def test_backend_reported():
    assert permlab.BACKEND in ("compiled", "pure")


def test_compiled_module_exports_the_dispatched_kernels(speedups):
    exported = {name for name in dir(speedups) if not name.startswith("_")}
    assert exported == set(COMPILED)


def test_perm_tables_parity(speedups):
    rng = random.Random(4)
    for n in range(1, 8):
        for _ in range(12 if n < 7 else 3):
            dist = [[rng.choice([0, rng.randint(0, 6)]) for _ in range(n)] for _ in range(n)]
            assert speedups.perm_tables(int64(dist), n) == permlab._sweep(dist, n), dist
    for seed in range(2):
        dist = all_pairs_distances(random_tree(8, 4, seed))
        assert speedups.perm_tables(int64(dist), 8) == permlab._sweep(dist, 8), seed


def test_perm_tables_declines(speedups):
    # a histogram as wide as these distances is past the C sweep's span
    # cap; the pure sweep's dense answer would be as wide, so only the
    # decline is checked here
    assert speedups.perm_tables(int64([[0, 10 ** 9], [10 ** 9, 0]]), 2) is None
    # the empty table is outside the C sweep's range; the pure sweep gives
    # the empty product
    assert speedups.perm_tables(array("q"), 0) is None
    assert permlab._sweep([], 0) == ([1], [1])


def test_perm_tables_short_table_raises(speedups):
    # a buffer of any length but n * n entries is declined by the C sweep,
    # and a table of fewer than n rows raises in the pure one
    for items in ([0, 1], [0, 1, 2], [0, 1, 1, 0, 0]):
        assert speedups.perm_tables(array("q", items), 2) is None, items
    with pytest.raises(IndexError):
        permlab._sweep([[0, 1]], 2)


def test_perm_tables_negative_entry_raises(speedups):
    # a negative length would index the histograms from their end: the C
    # sweep declines, and the pure one raises
    assert speedups.perm_tables(int64([[0, -1], [2, 0]]), 2) is None
    with pytest.raises(ValueError):
        permlab._sweep([[0, -1], [2, 0]], 2)


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
    monkeypatch.setattr(permlab, "_speedups", None)
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
    monkeypatch.setattr(permlab, "_speedups", speedups)
    assert identity_suite(t) == want
    assert all(answered[name] for name in COMPILED), answered


def test_dispatcher_falls_back_to_pure(monkeypatch, speedups):
    # a distance past the C sweep's span cap, which it declines, and one of
    # 2^63, which does not fit the int64 buffer: the pure sweep's answer
    # would be a histogram as wide, so a stand-in records the call
    monkeypatch.setattr(permlab, "_speedups", speedups)
    calls = []
    monkeypatch.setattr(permlab, "_sweep",
                        lambda dist, n: calls.append((dist, n)) or ([1], [-1]))
    weights = (10 ** 9, 2 ** 63)
    for w in weights:
        assert permlab.perm_tables(from_edges(2, [(1, 2, w)])) == (Poly([1]), Poly([-1]))
    assert calls == [(((0, w), (w, 0)), 2) for w in weights]
    with pytest.raises(OverflowError):
        int64([[0, 2 ** 63], [2 ** 63, 0]])


def run_cli(path, *args):
    env = {**os.environ, "PYTHONPATH": str(path)}
    proc = subprocess.run([sys.executable, "-m", "qdistmat.cli", *args],
                          capture_output=True, env=env, check=True)
    return proc.stdout


def test_built_checkout_reports_compiled(tmp_path, speedups_lib):
    # the module setup.py builds must be the one the package imports: copy
    # the package, lay the build over one copy as an install would, and
    # run each
    checkouts = {}
    for backend in ("compiled", "pure"):
        root = tmp_path / backend
        shutil.copytree(PACKAGE, root / "qdistmat",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
        checkouts[backend] = root
    shutil.copytree(speedups_lib, checkouts["compiled"], dirs_exist_ok=True)
    for backend, root in checkouts.items():
        assert run_cli(root, "backend").decode().strip() == backend
    verify = ("verify", "--exhaustive", "5", "--output", "json")
    assert run_cli(checkouts["compiled"], *verify) == run_cli(checkouts["pure"], *verify)


def test_pure_bareiss_rejects_bad_shapes():
    with pytest.raises(ValueError):
        bareiss_det([])
    with pytest.raises(ValueError):
        bareiss_det([[(1,)], [(1,), (2,)]])


# -- bareiss_det: Kronecker substitution against independent routes ---------


def cofactor_det(rows):
    return list(det_cofactor(rows).coeffs)


def test_pure_bareiss_matches_cofactor():
    rng = random.Random(6)
    for trial in range(306):
        # six dense orders 7 to 9 after the small ones
        n = rng.randint(1, 6) if trial < 300 else 7 + trial % 3
        rows = [[canon(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 11)))
                 for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows) == cofactor_det(rows), rows


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
    assert bareiss_det([[(x,) for x in row] for row in h]) == [want]
    # +-q^(r_i + c_j) scales det by q^(sum r + sum c), coefficient unchanged
    rng = random.Random(order)
    r = [rng.randint(0, 3) for _ in range(order)]
    c = [rng.randint(0, 3) for _ in range(order)]
    rows = [[(0,) * (r[i] + c[j]) + (h[i][j],) for j in range(order)] for i in range(order)]
    assert bareiss_det(rows) == [0] * (sum(r) + sum(c)) + [want]
    if order <= 6:
        assert bareiss_det(rows) == cofactor_det(rows)


@pytest.mark.parametrize("rows, det", [
    ([[[1, 2], [3]], [[], []]], []),  # zero row
    ([[[1], [2], [3]], [[2], [4], [6]], [[1], [], [1]]], []),  # a zero row after one step
    ([[[1], [1, 1]], [[1, 1], [1, 2, 1]]], []),  # rank one over Z[q]
    ([[[3, -1]]], [3, -1]),
    ([[[]]], []),
    ([[[], [1, 1]], [[2], [0, 3]]], [-2, -2]),  # zero diagonal: the first pivot is in row 2
    ([[[], [1], [2]], [[1], [], [1]], [[2], [1], []]], [4]),
    # distinct entries of equal l1 norm: a packing memo keyed on anything
    # but the entry itself would give them one packed value
    ([[[1, 2], [2, 1]], [[2, 1], [1, 2]]], [-3, 0, 3]),
    ([[[], [1, 2], [2, 1]], [[2, 1], [], [0, 3]], [[0, 3], [1, 2], []]], [4, 12, 18, 20]),
])
def test_pure_bareiss_edge_cases(rows, det):
    rows = [[tuple(e) for e in row] for row in rows]
    assert bareiss_det(rows) == det
    assert cofactor_det(rows) == det


# -- the elimination on integer matrices: any pivot order, one answer -------


def perm_sign(p):
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def int_matrices(rng, orders, trials):
    # (kind, matrix) pairs whose entries span 0 to 40 bits, so the pivot
    # rule both swaps and skips zeros
    def entry():
        return rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-2 ** 40, 2 ** 40)])

    for n in orders:
        for _ in range(trials):
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
            # rank r <= n - 2: every pivot after the r-th is zero
            r = rng.randint(0, max(0, n - 2))
            a = [[entry() for _ in range(r)] for _ in range(n)]
            b = [[entry() for _ in range(n)] for _ in range(r)]
            yield f"rank {r}", [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
                                for i in range(n)]


def int_det(m):
    # a constant entry packs to itself, so this is the elimination's own
    # integer determinant, read back as one digit
    return next(iter(bareiss_det([[(x,) if x else () for x in row] for row in m])), 0)


def test_elimination_matches_fraction_det():
    # up to order 14, where the dense cases fill in at every pivot
    rng = random.Random(10)
    for kind, m in chain(int_matrices(rng, range(1, 9), 12), int_matrices(rng, range(9, 15), 1)):
        assert int_det(m) == fraction_det(m), (kind, m)


def test_elimination_under_row_and_column_permutations():
    # the orders move the zeros and the entries the pivot rule picks first
    m = [[0, 1, 6, 40], [3, 0, 2, 17], [9, 5, 0, 1], [100, 7, 4, 0]]
    det = fraction_det(m)
    assert det
    for p in permutations(range(4)):
        for q in permutations(range(4)):
            pmq = [[m[p[i]][q[j]] for j in range(4)] for i in range(4)]
            assert int_det(pmq) == perm_sign(p) * perm_sign(q) * det, (p, q)


# -- bareiss_det: raw tree matrices and wide coefficients -------------------


@pytest.mark.parametrize("n", range(20, 25))
def test_pure_bareiss_independent_of_vertex_order(n):
    # conjugating by a vertex permutation leaves the determinant as it is
    # but changes which of the tied entries the pivot rule takes; the raw
    # q-matrices, not their congruent forms, are the widest the kernel
    # meets at these sizes (D_q of random_tree(24, 4, 0) packs at 152 bits)
    t = random_tree(n, 4, 0)
    order = random.Random(n).sample(range(n), n)
    for build, closed in ((build_dq, closedforms.dq_closed),
                          (build_dq_star, closedforms.dq_star_closed)):
        rows = build(t)
        conj = [[rows[i][j] for j in order] for i in order]
        want = list(closed(t.weights).coeffs)
        assert bareiss_det(rows) == bareiss_det(conj) == want, build.__name__


def scale_first_row(rows, factor):
    return [[tuple(c * factor for c in e) for e in rows[0]]] + rows[1:]


def hadamard_sq(rows):
    return math.prod(sum(sum(map(abs, e)) ** 2 for e in row) for row in rows)


def test_pure_bareiss_takes_constant_matrices_in_one_elimination(monkeypatch):
    # D at n = 24 is past the 64-bit Hadamard width, and still one
    # elimination at that width
    t = random_tree(24, 4, 0)
    calls = Counter()

    def sparse_det(m, real=exactdet._sparse_det):
        calls["_sparse_det"] += 1
        return real(m)

    monkeypatch.setattr(exactdet, "_sparse_det", sparse_det)
    rows = build_d(t)
    assert (hadamard_sq(rows).bit_length() + 1) // 2 + 2 > 64
    assert bareiss_det(rows) == [closedforms.bkn_det(t.weights)]
    assert calls == {"_sparse_det": 1}


def test_pure_bareiss_wide_coefficients_match_the_closed_form():
    # the scaled row puts every coefficient of the determinant past 2^80
    t = random_tree(22, 4, 5)
    rows = scale_first_row(list(build_dq_star(t)), 2 ** 80)
    want = [2 ** 80 * c for c in closedforms.dq_star_closed(t.weights).coeffs]
    assert bareiss_det(rows) == want


def test_pure_bareiss_wide_entries_match_cofactor():
    # first rows with coefficients past 2^80: the Hadamard width grows with
    # them, far past the other entries' own
    for n in range(2, 7):
        rows = scale_first_row(list(build_dq_star(random_tree(n, 4, n))), 2 ** 80)
        assert bareiss_det(rows) == cofactor_det(rows), n
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[random_coeffs(rng, 4, 30) for _ in range(n)] for _ in range(n)]
        # a first row with coefficients of 2^80, divisible by q - 1
        rows[0] = [(Poly(e) * Poly([-2 ** 80, 2 ** 80])).coeffs for e in rows[0]]
        assert bareiss_det(rows) == cofactor_det(rows), rows
