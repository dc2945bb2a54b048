"""Wiener polynomial and index."""

import math
import random

from qdistmat.polyring import Poly
from qdistmat.qmatrix import build_dq_star
from qdistmat.treekit import all_pairs_distances, from_edges, path_tree, random_tree, star_tree
from qdistmat.wiener import wiener_index, wiener_poly


def test_wiener_poly_examples():
    assert wiener_poly(path_tree(4, [1, 1, 1])) == Poly([0, 3, 2, 1])
    assert wiener_poly(star_tree(4, [1, 1, 1])) == Poly([0, 3, 3])
    assert wiener_poly(from_edges(2, [(1, 2, 5)])) == Poly([0, 0, 0, 0, 0, 1])


def test_wiener_index_examples():
    assert wiener_index(path_tree(4, [1, 1, 1])) == 10
    assert wiener_index(star_tree(4, [1, 1, 1])) == 9
    for n in range(2, 13):
        assert wiener_index(path_tree(n, [1] * (n - 1))) == math.comb(n + 1, 3)


def test_wiener_index_matches_distance_sum():
    rng = random.Random(2)
    for _ in range(200):
        t = random_tree(rng.randint(2, 9), 5, rng.getrandbits(63))
        d = all_pairs_distances(t)
        upper = sum(d[i - 1][j - 1] for i in range(1, t.n + 1) for j in range(i + 1, t.n + 1))
        assert wiener_index(t) == upper


def test_wiener_poly_at_one_counts_pairs():
    rng = random.Random(4)
    for _ in range(50):
        t = random_tree(rng.randint(2, 9), 4, rng.getrandbits(63))
        assert wiener_poly(t).eval_int(1) == math.comb(t.n, 2)


def test_wiener_poly_is_upper_triangle_of_monomial_matrix():
    rng = random.Random(6)
    for _ in range(50):
        t = random_tree(rng.randint(2, 8), 3, rng.getrandbits(63))
        m = build_dq_star(t)
        acc = Poly()
        for i in range(t.n):
            for j in range(i + 1, t.n):
                acc = acc + Poly(m[i][j])
        assert acc == wiener_poly(t)
