"""Matrix builders, minors, and the tree congruence."""

import math
import random

import pytest

from qdistmat import closedforms, exactdet
from qdistmat.exactdet import det_bareiss, det_cofactor
from qdistmat.identities import det_checks
from qdistmat.polyring import Poly, qbracket, qpower
from qdistmat.qmatrix import (
    build_d,
    build_d_plus_xJ,
    build_dq,
    build_dq_star,
    minor,
    tree_congruent,
)
from qdistmat.treekit import (
    all_pairs_distances, enumerate_trees, from_edges, path_tree, random_tree, star_tree,
)


def values_at(m, t):
    """Entrywise integer evaluation at t."""
    return tuple(tuple(Poly(e).eval_int(t) for e in row) for row in m)


def entry(m, i, j):
    """Entry at 1-based position (i, j), as a Poly."""
    return Poly(m[i - 1][j - 1])


def test_build_d_examples():
    m = build_d(from_edges(2, [(1, 2, 1)]))
    assert values_at(m, 0) == ((0, 1), (1, 0))
    p3 = build_d(path_tree(3, [1, 1]))
    assert values_at(p3, 0) == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    t = random_tree(6, 3, 17)
    assert all(entry(build_d(t), i, i) == Poly() for i in range(1, 7))


def test_build_dq_examples():
    m = build_dq(path_tree(3, [1, 1]))
    assert entry(m, 1, 2) == Poly([1])
    assert entry(m, 1, 3) == Poly([1, 1])
    s = build_dq(star_tree(4, [2, 3, 5]))
    assert entry(s, 1, 2) == qbracket(2 + 3)
    assert entry(s, 1, 4) == qbracket(2)


def test_build_dq_specializes_to_d():
    for seed in range(10):
        t = random_tree(6, 4, seed)
        assert values_at(build_dq(t), 1) == values_at(build_d(t), 0)


def test_build_dq_star_examples():
    m = build_dq_star(from_edges(2, [(1, 2, 3)]))
    assert entry(m, 1, 2) == qpower(3)
    assert entry(m, 1, 1) == Poly([1])
    p3 = build_dq_star(path_tree(3, [1, 1]))
    assert [str(entry(p3, 1, j)) for j in (1, 2, 3)] == ["1", "q", "q^2"]
    t = random_tree(7, 2, 3)
    assert all(entry(build_dq_star(t), i, i) == Poly([1]) for i in range(1, 8))


def test_build_d_plus_xj():
    m = build_d_plus_xJ(from_edges(2, [(1, 2, 1)]))
    assert entry(m, 1, 1) == Poly([0, 1])
    assert entry(m, 1, 2) == Poly([1, 1])
    t = random_tree(5, 3, 7)
    shifted = build_d_plus_xJ(t)
    assert values_at(shifted, 0) == values_at(build_d(t), 0)
    assert all(len(e) == 2 and e[1] == 1 for row in shifted for e in row)


def test_symmetry_invariants():
    for seed in range(20):
        t = random_tree(random.Random(seed).randint(2, 7), 4, seed)
        for builder in (build_d, build_dq, build_dq_star):
            m = builder(t)
            assert m == tuple(zip(*m))


def test_minor_identity_and_singletons():
    m = build_dq(path_tree(3, [1, 1]))
    assert minor(m, set(), set()) == m
    mid = minor(tuple(tuple((i * 3 + j,) for j in range(1, 4)) for i in range(3)),
                {1, 3}, {1, 3})
    assert mid == (((5,),),)


def _drop_pendant(t, p):
    # subtree after removing pendant p, labels above p shifted down
    edges = [
        (u - (u > p), v - (v > p), w)
        for u, v, w in t.edges
        if p not in (u, v)
    ]
    return from_edges(t.n - 1, edges)


def test_minor_pendant_deletion_matches_subtree():
    # deleting a pendant vertex's row/column equals building on the subtree
    t = path_tree(4, [2, 3, 4])
    sub = from_edges(3, [(1, 2, 3), (2, 3, 4)])
    got = minor(build_dq(t), {1}, {1})
    want = build_dq(sub)
    assert got == want
    got_star = minor(build_dq_star(t), {4}, {4})
    want_star = build_dq_star(path_tree(3, [2, 3]))
    assert got_star == want_star


def test_minor_pendant_deletion_random_trees():
    rng = random.Random(314)
    for _ in range(40):
        t = random_tree(rng.randint(3, 8), 4, rng.getrandbits(63))
        for builder in (build_d, build_dq, build_dq_star):
            for p in t.pendant_vertices():
                assert minor(builder(t), {p}, {p}) == builder(_drop_pendant(t, p))


def test_minor_composition():
    t = random_tree(6, 3, 99)
    m = build_dq(t)
    stepwise = minor(minor(m, {1}, {1}), {4}, {4})  # index 4 after the shift is vertex 5
    at_once = minor(m, {1, 5}, {1, 5})
    assert stepwise == at_once


def test_minor_validation():
    m = build_dq(path_tree(3, [1, 1]))
    with pytest.raises(ValueError):
        minor(m, {1}, set())
    with pytest.raises(ValueError):
        minor(m, {0}, {1})
    with pytest.raises(ValueError):
        minor(m, {4}, {1})
    with pytest.raises(ValueError):
        minor(m, {1, 2, 3}, {1, 2, 3})


def test_entry_strings():
    m = build_dq(path_tree(3, [1, 1]))
    assert [[str(entry(m, i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)] == [
        ["0", "1", "1 + q"],
        ["1", "0", "1"],
        ["1 + q", "1", "0"],
    ]


def test_builders_share_one_canonical_tuple_per_distance():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tree(rng.randint(2, 8), 4, rng.getrandbits(63))
        dist = all_pairs_distances(t)
        for builder in (build_d, build_d_plus_xJ, build_dq, build_dq_star):
            m = builder(t)
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            shared = {}
            for drow, row in zip(dist, m):
                for x, e in zip(drow, row):
                    assert type(e) is tuple and all(type(c) is int for c in e)
                    assert Poly(e).coeffs == e  # canonical: no trailing zero
                    assert shared.setdefault(x, e) is e, (builder.__name__, x)
            sub = minor(m, {1}, {1})
            assert all(e is shared[x] for drow, row in zip(dist[1:], sub)
                       for x, e in zip(drow[1:], row))


# -- tree_congruent: C = L M L^T, same determinant and leaf minors -----------


def congruence_corpus():
    # every labelled tree with n = 2..6, and 50 seeded weighted trees, n <= 9
    trees = [t for n in range(2, 7) for t in enumerate_trees(n)]
    rng = random.Random(17)
    trees += [random_tree(rng.randint(2, 9), 4, rng.getrandbits(63)) for _ in range(50)]
    return trees


def leaf_minor_dets(m, u, v):
    # the five minors the identity suite takes at its leaf pair u < v
    return [det_bareiss(minor(m, rows, cols))
            for rows, cols in (((u,), (u,)), ((v,), (v,)), ((u,), (v,)), ((v,), (u,)),
                               ((u, v), (u, v)))]


def nonzeros(m):
    return sum(bool(e) for row in m for e in row)


def test_congruent_forms_keep_determinants_and_leaf_minors():
    for t in congruence_corpus():
        n = t.n
        for build, size in ((build_dq_star, n), (build_dq, 3 * n - 3)):
            m = build(t)
            c = tree_congruent(t, m)
            # diag(1, 1 - q^(2w)) for D*_q, an arrowhead for D_q
            assert nonzeros(c) == size, (t, build.__name__)
            det = det_bareiss(c)
            assert det == det_bareiss(m), (t, build.__name__)
            assert det == det_cofactor(c), (t, build.__name__)
        if n >= 3:
            leaves = t.pendant_vertices()
            u, v = leaves[0], leaves[-1]
            m = build_dq(t)
            assert leaf_minor_dets(tree_congruent(t, m), u, v) == leaf_minor_dets(m, u, v), t


@pytest.mark.parametrize("n, max_weight, seed", [
    (12, 4, 0), (24, 3, 1), (36, 2, 2), (48, 2, 3), (60, 3, 4), (100, 1, 5),
])
def test_congruent_determinants_match_the_closed_forms(n, max_weight, seed):
    t = random_tree(n, max_weight, seed)
    ws = t.weights
    assert det_bareiss(tree_congruent(t, build_dq_star(t))) == closedforms.dq_star_closed(ws)
    assert det_bareiss(tree_congruent(t, build_dq(t))) == closedforms.dq_closed(ws)
    assert (det_bareiss(tree_congruent(t, build_d(t), unit=True))
            == Poly([closedforms.bkn_det(ws)]))
    assert (det_bareiss(tree_congruent(t, build_d_plus_xJ(t), unit=True))
            == closedforms.bkn_det_xj(ws))


def unit_arrowhead(t, corner):
    """[[corner, w^T], [w, -2 diag(w)]] at the root, read off the tree.

    The root is the smallest label of degree at least 2 (1 when n <= 2),
    and w_v is the weight of the edge from v towards it: of the two ends
    of an edge, the one farther from the root.
    """
    n, adj = t.n, t.adjacency()
    r = next((v for v in range(1, n + 1) if len(adj[v]) > 1), 1) - 1
    dist = all_pairs_distances(t)[r]
    c = [[()] * n for _ in range(n)]
    c[r][r] = corner
    for a, b, w in t.edges:
        v = max(a - 1, b - 1, key=dist.__getitem__)
        c[r][v] = c[v][r] = (w,)
        c[v][v] = (-2 * w,)
    return tuple(map(tuple, c))


def test_unit_congruence_takes_d_and_d_plus_xj_to_arrowheads():
    rng = random.Random(29)
    for _ in range(200):
        t = random_tree(rng.randint(2, 13), 4, rng.getrandbits(63))
        n = t.n
        for build, corner, size in ((build_d, (), 3 * n - 3),
                                    (build_d_plus_xJ, (0, 1), 3 * n - 2)):
            m = build(t)
            c = tree_congruent(t, m, unit=True)
            assert c == unit_arrowhead(t, corner), (t, build.__name__)
            assert nonzeros(c) == size, (t, build.__name__)
            assert det_bareiss(c) == det_bareiss(m), (t, build.__name__)


def test_a_wrong_multiplier_keeps_the_determinant():
    # the same shape with every weight one higher gives c_v = q^(w_v + 1):
    # C fills up, and its determinant stays det M
    rng = random.Random(23)
    for _ in range(20):
        t = random_tree(rng.randint(2, 9), 3, rng.getrandbits(63))
        heavier = from_edges(t.n, [(a, b, w + 1) for a, b, w in t.edges])
        for build in (build_dq_star, build_dq):
            m = build(t)
            c = tree_congruent(heavier, m)
            assert det_bareiss(c) == det_bareiss(m), (t, build.__name__)
            if t.n > 2:
                assert nonzeros(c) > nonzeros(tree_congruent(t, m)), (t, build.__name__)
        # and q^(w_v) in place of 1 on D and D + xJ
        for build in (build_d, build_d_plus_xJ):
            m = build(t)
            c = tree_congruent(t, m)
            assert det_bareiss(c) == det_bareiss(m), (t, build.__name__)
            if t.n > 2:
                assert nonzeros(c) > nonzeros(tree_congruent(t, m, unit=True)), t


def hadamard_width(rows):
    sq = math.prod(sum(sum(map(abs, e)) ** 2 for e in row) for row in rows)
    return (sq.bit_length() + 1) // 2 + 2


def test_det_checks_hand_the_kernel_narrow_q_matrices(monkeypatch):
    # D_q of random_tree(24, 4, 0) packs at 152 bits as built
    t = random_tree(24, 4, 0)
    assert hadamard_width(build_dq(t)) > 64
    widths = []

    def bareiss_det(rows, real=exactdet.bareiss_det):
        widths.append(hadamard_width(rows))
        return real(rows)

    monkeypatch.setattr(exactdet, "bareiss_det", bareiss_det)
    assert all(c.passed for c in det_checks(t))
    assert len(widths) == 4 and max(widths) <= 64, widths
