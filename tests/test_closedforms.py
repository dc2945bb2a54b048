"""Closed-form formulas against exact determinants."""

import itertools
import random

import pytest

from qdistmat import closedforms as cf
from qdistmat.exactdet import det_bareiss
from qdistmat.polyring import Poly, qbracket, qpower
from qdistmat.qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star
from qdistmat.treekit import (
    enumerate_trees,
    pendant_first_last,
    prufer_decode,
    random_tree,
    random_trees,
)


def test_graham_pollak_values():
    assert cf.graham_pollak(2) == -1
    assert cf.graham_pollak(3) == 4
    assert cf.graham_pollak(4) == -12
    assert cf.graham_pollak(5) == 32
    assert cf.graham_pollak(6) == -80
    with pytest.raises(ValueError):
        cf.graham_pollak(1)


def test_bkn_xj_examples():
    assert cf.bkn_det_xj([1]) == Poly([-1, -2])
    assert cf.bkn_det_xj([1, 1, 1]) == Poly([-12, -8])
    for ws in ([2], [1, 2], [3, 1, 4, 1]):
        assert cf.bkn_det_xj(ws).coeff(0) == cf.bkn_det(ws)


def test_bkn_det_examples():
    assert cf.bkn_det([1, 2]) == 12
    assert cf.bkn_det([3]) == -9
    for n in range(2, 9):
        assert cf.bkn_det([1] * (n - 1)) == cf.graham_pollak(n)


def test_dq_star_closed_examples():
    assert cf.dq_star_closed([1, 1]) == Poly([1, 0, -2, 0, 1])
    assert cf.dq_star_closed([2]) == Poly([1, 0, 0, 0, -1])
    assert cf.dq_star_closed([3, 1, 2]) == cf.dq_star_closed([2, 3, 1])


def test_dq_closed_examples():
    assert cf.dq_closed([1, 2]) == Poly([2, 4, 4, 2])
    assert cf.dq_closed([1, 1, 1]) == Poly([-3, -6, -3])
    for ws in ([2], [1, 3], [2, 2, 1], [1, 2, 3, 4]):
        assert cf.dq_closed(ws).eval_int(1) == cf.bkn_det(ws)


def test_dq_closed_small_cases():
    assert cf.dq_closed([4]) == -(qbracket(4) * qbracket(4))
    assert cf.dq_closed([2, 3]) == 2 * (qbracket(2) * qbracket(3) * qbracket(5))


def f_cleared(weights):
    """The paper's sum over index pairs, in cleared form (needs >= 3 weights).

    Sum over the pairs (1,2), (m-1,m) and (i,i+2), i = 1..m-2, of
    [w_i][w_j][w_i + w_j] times the product of [2 w_k] over all other k.
    """
    ws = tuple(weights)
    m = len(ws)
    if m < 3:
        raise ValueError(f"need at least 3 edge weights, got {m}")
    pairs = [(0, 1), (m - 2, m - 1)] + [(i, i + 2) for i in range(m - 2)]
    acc = Poly()
    for i, j in pairs:
        term = qbracket(ws[i]) * qbracket(ws[j]) * qbracket(ws[i] + ws[j])
        for k in range(m):
            if k != i and k != j:
                term = term * qbracket(2 * ws[k])
        acc = acc + term
    return acc


def paper_dq(weights):
    """det D_q as the paper states it: n = 2, n = 3, and the pair sum beyond."""
    ws = tuple(weights)
    n = len(ws) + 1
    if n == 2:
        return -(qbracket(ws[0]) * qbracket(ws[0]))
    if n == 3:
        return 2 * (qbracket(ws[0]) * qbracket(ws[1]) * qbracket(ws[0] + ws[1]))
    f = f_cleared(ws)
    return f if n % 2 else -f


def test_f_cleared():
    assert f_cleared([1, 1, 1]) == 3 * (Poly([1, 1]) ** 2)
    with pytest.raises(ValueError):
        f_cleared([1, 2])


def test_dq_closed_matches_paper_exhaustive():
    for m in range(1, 7):
        for ws in itertools.product(range(1, 5), repeat=m):
            assert cf.dq_closed(ws) == paper_dq(ws), ws


def test_dq_closed_matches_paper_seeded():
    rng = random.Random(11)
    for _ in range(30):
        ws = [rng.randint(1, 12) for _ in range(rng.randint(1, 25))]
        assert cf.dq_closed(ws) == paper_dq(ws), ws


def test_f_cleared_symmetry_exhaustive():
    for ws in ([1, 2, 3], [1, 2, 3, 4]):
        base = cf.dq_closed(ws)
        for perm in itertools.permutations(ws):
            assert cf.dq_closed(perm) == base


def test_f_cleared_symmetry_sampled():
    rng = random.Random(7)
    for length in (5, 6, 7):
        ws = [rng.randint(1, 4) for _ in range(length)]
        base = cf.dq_closed(ws)
        for _ in range(10):
            perm = ws[:]
            rng.shuffle(perm)
            assert cf.dq_closed(perm) == base


def test_corner_minor_closed_examples():
    assert cf.corner_minor_closed(1, 1, [1]) == Poly([1, 1])
    assert cf.corner_minor_closed(2, 3, []) == qbracket(2) * qbracket(3)


def test_simple_tree_forms():
    assert cf.dq_star_simple(2) == Poly([1, 0, -1])
    assert cf.dq_simple(3) == Poly([2, 2])
    for n in range(2, 10):
        assert cf.dq_simple(n).eval_int(1) == cf.graham_pollak(n)
        assert cf.dq_star_simple(n) == cf.dq_star_closed([1] * (n - 1))


def test_vertex_count_validation():
    for fn in (cf.graham_pollak, cf.dq_simple, cf.dq_star_simple):
        # integers only, as for the weights: 4.0, True and "4" are no vertex counts
        for n in (4.0, True, "4", 1, 0):
            with pytest.raises(ValueError):
                fn(n)
        assert fn(Index(4)) == fn(4)


class Index:
    # an integer type other than int: operator.index accepts it
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_weight_validation():
    for fn in (cf.bkn_det, cf.bkn_det_xj, cf.dq_star_closed, cf.dq_closed):
        with pytest.raises(ValueError):
            fn([])
        with pytest.raises(ValueError):
            fn([1, 0])
        # integers only: int() would read 1.7 as 1, "2" as 2 and True as 1
        for weights in ([1.7], ["2"], [True, 2], [2, 1.0]):
            with pytest.raises(ValueError):
                fn(weights)
        assert fn([Index(2), 3]) == fn([2, 3])
    for args in ((1.7, 1, []), (1, True, []), (1, 1, ["2"]), (0, 1, [])):
        with pytest.raises(ValueError):
            cf.corner_minor_closed(*args)
    assert cf.corner_minor_closed(Index(2), 3, [Index(1)]) == cf.corner_minor_closed(2, 3, [1])


def test_formula_determinant_agreement():
    # the paper's main theorems as executable identities
    count = 0
    for t in random_trees(100, 2, 8, 4, seed=2024):
        ws = t.weights
        assert det_bareiss(build_dq_star(t)) == cf.dq_star_closed(ws)
        assert det_bareiss(build_dq(t)) == cf.dq_closed(ws)
        assert det_bareiss(build_d(t)) == Poly([cf.bkn_det(ws)])
        assert det_bareiss(build_d_plus_xJ(t)) == cf.bkn_det_xj(ws)
        assert cf.bkn_det(ws) == cf.bkn_det_xj(ws).coeff(0)  # det D is det(D + xJ) at x = 0
        count += 1
    assert count == 100


def test_structure_independence_unit_exhaustive():
    for n in range(2, 6):
        profiles = {
            tuple(
                det_bareiss(b(t)).coeffs
                for b in (build_d, build_dq, build_dq_star, build_d_plus_xJ)
            )
            for t in enumerate_trees(n)
        }
        assert len(profiles) == 1, n


def test_structure_independence_mixed_weights():
    # same weight multiset on different shapes and edge assignments
    rng = random.Random(99)
    weights = [1, 2, 3, 4]
    n = 5
    profiles = set()
    for _ in range(25):
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        ws = weights[:]
        rng.shuffle(ws)
        t = prufer_decode(seq, n, ws)
        profiles.add(
            tuple(
                det_bareiss(b(t)).coeffs
                for b in (build_d, build_dq, build_dq_star, build_d_plus_xJ)
            )
        )
    assert len(profiles) == 1


def test_column_elimination_step():
    # subtracting q^w times the neighbor column from a pendant column of
    # the monomial matrix leaves a single 1 - q^(2w) entry
    rng = random.Random(123)
    for _ in range(50):
        t = random_tree(rng.randint(2, 8), 4, rng.getrandbits(63))
        m = build_dq_star(t)
        for p in t.pendant_vertices():
            (s, w) = next(
                (v, w) if u == p else (u, w)
                for (u, v, w) in t.edges
                if p in (u, v)
            )
            col_p = [Poly(row[p - 1]) for row in m]
            col_s = [Poly(row[s - 1]) for row in m]
            diff = [a - qpower(w) * b for a, b in zip(col_p, col_s)]
            for i, e in enumerate(diff, start=1):
                if i == p:
                    assert e == Poly([1]) - qpower(2 * w)
                else:
                    assert e == Poly()


def test_recurrence_16_on_closed_forms():
    # the four-term recurrence expressed purely through the closed forms
    rng = random.Random(31)
    for i in range(30):
        n = rng.randint(4, 8)
        t = pendant_first_last(random_tree(n, 4, rng.getrandbits(63)), seed=i)
        ws = list(t.weights)
        b1 = next(w for (u, v, w) in t.edges if 1 in (u, v))
        bn = next(w for (u, v, w) in t.edges if n in (u, v))
        rest = [w for (u, v, w) in t.edges if 1 not in (u, v) and n not in (u, v)]
        total = (
            cf.dq_closed(ws)
            + qbracket(2 * b1) * cf.dq_closed(rest + [bn])
            + qbracket(2 * bn) * cf.dq_closed([b1] + rest)
            + qbracket(2 * b1) * qbracket(2 * bn) * cf.dq_closed(rest)
        )
        assert not total


def test_corner_minor_against_determinant():
    from qdistmat.exactdet import det_bareiss as det
    from qdistmat.qmatrix import minor

    rng = random.Random(63)
    for i in range(30):
        n = rng.randint(3, 8)
        t = pendant_first_last(random_tree(n, 4, rng.getrandbits(63)), seed=i)
        b1 = next(w for (u, v, w) in t.edges if 1 in (u, v))
        bn = next(w for (u, v, w) in t.edges if n in (u, v))
        rest = [w for (u, v, w) in t.edges if 1 not in (u, v) and n not in (u, v)]
        assert det(minor(build_dq(t), {1}, {n})) == cf.corner_minor_closed(b1, bn, rest)
