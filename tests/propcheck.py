"""Shared property checks: module tests and the acceptance suite both run
these, so the counts stay pinned in one place."""

import math
import random

from qdistmat.exactdet import det_bareiss, det_cofactor
from qdistmat.permlab import Permutation, phi_count_direct, phi_count_poly
from qdistmat.polyring import Poly, qbracket, qpower
from qdistmat.qmatrix import build_dq, build_dq_star
from qdistmat.treekit import all_pairs_distances, enumerate_trees, random_tree, relabel


def random_poly(rng, max_deg=12, bound=50):
    return Poly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def check_ring_axioms(seed=101, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def check_bracket_recurrence():
    for a in range(21):
        for b in range(21):
            assert qbracket(a + b) == qbracket(a) + qpower(a) * qbracket(b), (a, b)


def check_telescoping():
    one_minus_q = Poly([1, -1])
    for a in range(1, 21):
        assert one_minus_q * qbracket(a) == Poly([1]) - qpower(a), a


def check_bracket_eval():
    for a in range(40):
        assert qbracket(a).eval_int(1) == a


def random_int_matrix(rng, n, bound=9):
    return tuple(tuple(Poly([rng.randint(-bound, bound)]).coeffs for _ in range(n))
                 for _ in range(n))


def check_bareiss_cofactor_agreement(seed=303, int_trials=500, tree_trials=100):
    rng = random.Random(seed)
    for _ in range(int_trials):
        m = random_int_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == det_cofactor(m)
    for _ in range(tree_trials):
        n = rng.randint(2, 5)
        t = random_tree(n, 3, rng.getrandbits(63))
        m = build_dq(t) if rng.random() < 0.5 else build_dq_star(t)
        assert det_bareiss(m) == det_cofactor(m)


def check_relabel_invariance(seed=404, trials=100):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(2, 7)
        t = random_tree(n, 4, rng.getrandbits(63))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        t2 = relabel(t, dict(zip(range(1, n + 1), perm)))
        assert det_bareiss(build_dq(t)) == det_bareiss(build_dq(t2))
        assert det_bareiss(build_dq_star(t)) == det_bareiss(build_dq_star(t2))


def check_prufer_bijectivity(n_max=6):
    for n in range(2, n_max + 1):
        seen = {t.edge_set() for t in enumerate_trees(n)}
        assert len(seen) == n ** (n - 2), n


def random_derangement(rng, n):
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        if all(images[i - 1] != i for i in range(1, n + 1)):
            return Permutation(images)


def check_phi_dual_oracles(seed=505, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(2, 7)
        t = random_tree(n, 3, rng.getrandbits(63))
        d = all_pairs_distances(t)
        p = random_derangement(rng, n)
        poly = phi_count_poly(p, d)
        k = rng.randint(0, max(0, len(poly.coeffs) + 1))
        assert poly.coeff(k) == phi_count_direct(p, d, k), (t.edges, p, k)


def binomial_tables(n):
    """The paper's N- and M-tables of a simple tree on n vertices, term by term:

    N_{n,k} = (-1)^(k/2) C(n-1, k/2) for even k and 0 for odd k, and
    M_{n,k} = (-1)^(n-1) (n-1) C(n-2, k).  This is the route independent of
    both the permutation sweep and ``closedforms``.
    """
    n_table = Poly(0 if k % 2 else (-1) ** (k // 2) * math.comb(n - 1, k // 2)
                   for k in range(2 * n - 1))
    m_table = Poly((-1) ** (n - 1) * (n - 1) * math.comb(n - 2, k) for k in range(n - 1))
    return n_table, m_table


ALL_CHECKS = [
    check_ring_axioms,
    check_bracket_recurrence,
    check_telescoping,
    check_bracket_eval,
    check_bareiss_cofactor_agreement,
    check_relabel_invariance,
    check_prufer_bijectivity,
    check_phi_dual_oracles,
]

