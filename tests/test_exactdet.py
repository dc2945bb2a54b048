"""Determinant routes: the elimination, the cofactor oracle, condensation."""

import random

import pytest

import propcheck
from qdistmat.exactdet import check_dodgson_identity, det_bareiss, det_cofactor
from qdistmat import closedforms, exactdet
from qdistmat.polyring import Poly, qbracket
from qdistmat.qmatrix import (
    build_d,
    build_d_plus_xJ,
    build_dq,
    build_dq_star,
    minor,
    tree_congruent,
)
from qdistmat.treekit import from_edges, path_tree, random_tree, star_tree


def ints(rows):
    return tuple(tuple((x,) if x else () for x in row) for row in rows)


def test_bareiss_examples():
    assert det_bareiss(ints([[1, 0], [0, 1]])) == Poly([1])
    assert det_bareiss(build_d(path_tree(4, [1, 1, 1]))) == Poly([-12])
    assert det_bareiss(build_dq(path_tree(3, [1, 1]))) == Poly([2, 2])


def test_bareiss_zero_pivot_and_zero_det():
    # distance matrices have a zero diagonal: the first pivot cannot be (1,1)
    assert det_bareiss(ints([[0, 1], [1, 0]])) == Poly([-1])
    assert det_bareiss(ints([[0, 0], [0, 0]])) == Poly()
    assert det_bareiss(ints([[1, 2], [2, 4]])) == Poly()
    assert det_bareiss(ints([[1, 1, 1], [1, 1, 1], [2, 5, 7]])) == Poly()


def test_bareiss_order_one():
    assert det_bareiss((((3, 1),),)) == Poly([3, 1])


def test_bareiss_rejects_empty_and_ragged_matrices():
    for m in ((), (((1,),), ((1,), (2,)))):
        with pytest.raises(ValueError):
            det_bareiss(m)


def test_bareiss_hands_the_kernel_the_stored_rows(monkeypatch):
    # the elimination reads the rows as stored, with no copy or conversion
    seen = []

    def kernel(rows):
        seen.append(rows)
        return [7]

    monkeypatch.setattr(exactdet, "bareiss_det", kernel)
    m = build_dq(random_tree(5, 3, 2))
    assert det_bareiss(m) == Poly([7])
    assert seen == [m] and seen[0] is m


def test_cofactor_examples():
    assert det_cofactor((((5, 2),),)) == Poly([5, 2])
    m = build_dq_star(from_edges(2, [(1, 2, 2)]))
    assert det_cofactor(m) == Poly([1, 0, 0, 0, -1])
    rng = random.Random(0)
    m4 = propcheck.random_int_matrix(rng, 4)
    assert det_cofactor(m4) == det_bareiss(m4)


def test_cofactor_cap():
    for m in ((), (((1,),), ((1,), (2,)))):
        with pytest.raises(ValueError):
            det_cofactor(m)
    # no order cap: the expansion agrees with the elimination on tree matrices up to n = 10
    for n in range(7, 11):
        t = random_tree(n, 3, n)
        for m in (build_d(t), build_d_plus_xJ(t), build_dq_star(t), build_dq(t),
                  tree_congruent(t, build_dq_star(t)), tree_congruent(t, build_dq(t))):
            assert det_cofactor(m) == det_bareiss(m), t.edges


def test_bareiss_cofactor_agreement():
    propcheck.check_bareiss_cofactor_agreement()


def test_relabel_invariance():
    propcheck.check_relabel_invariance()


def test_transpose_invariance():
    rng = random.Random(8)
    for _ in range(50):
        m = propcheck.random_int_matrix(rng, rng.randint(1, 5))
        mt = tuple(zip(*m))
        assert det_bareiss(m) == det_bareiss(mt)
    # symmetric q-distance matrices: opposite corner minors agree
    for _ in range(20):
        t = random_tree(rng.randint(3, 7), 4, rng.getrandbits(63))
        dq = build_dq(t)
        assert det_bareiss(minor(dq, {1}, {t.n})) == det_bareiss(minor(dq, {t.n}, {1}))


def test_dodgson_identity_examples():
    rng = random.Random(33)
    m = propcheck.random_int_matrix(rng, 3)
    assert check_dodgson_identity(m)
    t = random_tree(5, 4, 77)
    assert check_dodgson_identity(build_dq(t))
    ones = ints([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert check_dodgson_identity(ones)


def test_dodgson_identity_sweep():
    rng = random.Random(44)
    for _ in range(300):
        m = propcheck.random_int_matrix(rng, rng.randint(3, 6))
        assert check_dodgson_identity(m)


def test_dodgson_identity_order_guard():
    with pytest.raises(ValueError):
        check_dodgson_identity(ints([[1, 2], [3, 4]]))


def recording_det(m, dets):
    """A ``det`` for check_dodgson_identity that records each minor it is asked for."""
    def det(rows, cols):
        assert (rows, cols) not in dets  # each determinant is asked for once
        dets[rows, cols] = det_bareiss(minor(m, rows, cols) if rows else m)
        return dets[rows, cols]
    return det


def test_dodgson_identity_on_every_pair():
    rng = random.Random(45)
    for n in range(3, 6):
        for _ in range(20):
            m = propcheck.random_int_matrix(rng, n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    dets = {}
                    assert check_dodgson_identity(m, (i, j), recording_det(m, dets))
                    # it condenses on rows and columns i and j, and on no others
                    assert set(dets) == {
                        ((), ()), ((i,), (i,)), ((j,), (j,)), ((i,), (j,)), ((j,), (i,)),
                        ((i, j), (i, j)),
                    }
                    for (rows, cols), value in dets.items():
                        sub = minor(m, rows, cols) if rows else m
                        assert value == det_cofactor(sub)
    m = propcheck.random_int_matrix(rng, 4)
    default, first_last = {}, {}
    assert check_dodgson_identity(m, det=recording_det(m, default))
    assert check_dodgson_identity(m, (1, 4), recording_det(m, first_last))
    assert default == first_last
    for bad in ((2, 2), (3, 2), (0, 2), (1, 5)):
        with pytest.raises(ValueError):
            check_dodgson_identity(m, pair=bad)


def test_bareiss_big_coefficients_fall_back_exactly():
    # entries far beyond 64 bits: the packing width grows with them
    big = 10 ** 30
    m = ints([[big, big - 1, 3], [big + 2, big, 5], [1, 2, big]])
    got = det_bareiss(m)
    want = det_cofactor(m)
    assert got == want


@pytest.mark.parametrize("shape", [path_tree, star_tree])
def test_bareiss_closed_forms_n20(shape):
    ws = [1 + (7 * i) % 4 for i in range(19)]
    t = shape(20, ws)
    assert det_bareiss(build_dq(t)) == closedforms.dq_closed(ws)
    assert det_bareiss(build_dq_star(t)) == closedforms.dq_star_closed(ws)
    assert det_bareiss(build_d_plus_xJ(t)) == closedforms.bkn_det_xj(ws)


WS29 = [1 + (7 * i) % 3 for i in range(29)]


@pytest.mark.parametrize("t", [random_tree(n, 2, n) for n in range(26, 31)]
                         + [path_tree(30, WS29), star_tree(30, WS29)],
                         ids=[f"random{n}" for n in range(26, 31)] + ["path30", "star30"])
def test_bareiss_closed_forms_large(t):
    # the raw matrices, past the 64-bit packing width: one elimination at
    # the Hadamard width, far wider than the congruent forms would need
    assert det_bareiss(build_dq(t)) == closedforms.dq_closed(t.weights)
    assert det_bareiss(build_dq_star(t)) == closedforms.dq_star_closed(t.weights)
    assert det_bareiss(build_d_plus_xJ(t)) == closedforms.bkn_det_xj(t.weights)


def test_recurrence_16():
    rng = random.Random(55)
    from qdistmat.treekit import pendant_first_last

    for i in range(40):
        n = rng.randint(4, 8)
        t = pendant_first_last(random_tree(n, 4, rng.getrandbits(63)), seed=i)
        dq = build_dq(t)
        b1 = next(w for (u, v, w) in t.edges if 1 in (u, v))
        bn = next(w for (u, v, w) in t.edges if n in (u, v))
        total = (
            det_bareiss(dq)
            + qbracket(2 * b1) * det_bareiss(minor(dq, {1}, {1}))
            + qbracket(2 * bn) * det_bareiss(minor(dq, {n}, {n}))
            + qbracket(2 * b1) * qbracket(2 * bn) * det_bareiss(minor(dq, {1, n}, {1, n}))
        )
        assert not total, t.edges
