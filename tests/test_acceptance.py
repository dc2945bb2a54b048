"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
live).  Timing is reported per criterion; every check is exact, so there
are no tolerances to tune.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import propcheck
from propcheck import binomial_tables
from qdistmat import closedforms as cf
from qdistmat import permlab
from qdistmat.exactdet import check_dodgson_identity, det_bareiss
from qdistmat.polyring import Poly, qbracket
from qdistmat.qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star, minor
from qdistmat.treekit import (
    enumerate_trees,
    path_tree,
    pendant_first_last,
    random_tree,
    random_trees,
    star_tree,
)

CORPUS_SEED = 8675309


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {num}: {desc}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE PASS criterion {num}: {desc} [{elapsed:.2f}s]")


@lru_cache(maxsize=1)
def corpus_200():
    """200 random weighted trees, n in [2,8], weights in [1,4]."""
    return tuple(random_trees(200, 2, 8, 4, seed=CORPUS_SEED))


def all_unit_trees(n_max=6):
    for n in range(2, n_max + 1):
        yield from enumerate_trees(n)


def test_criterion_01_graham_pollak_exhaustive():
    with criterion(1, "Graham-Pollak determinant on all 1441 unit trees, n <= 6"):
        count = 0
        for t in all_unit_trees():
            assert det_bareiss(build_d(t)) == Poly([cf.graham_pollak(t.n)]), t.edges
            count += 1
        assert count == 1 + 3 + 16 + 125 + 1296


def test_criterion_02_bkn_shifted_determinant():
    with criterion(2, "rank-one shifted determinant matches its closed form, 200 trees"):
        for t in corpus_200():
            ws = t.weights
            shifted = det_bareiss(build_d_plus_xJ(t))
            assert shifted == cf.bkn_det_xj(ws), t.edges
            assert shifted.coeff(0) == cf.bkn_det(ws), t.edges


def test_criterion_03_monomial_determinant():
    with criterion(3, "monomial q-determinant equals its product form, 200 + 1441 trees"):
        for t in corpus_200():
            assert det_bareiss(build_dq_star(t)) == cf.dq_star_closed(t.weights), t.edges
        for t in all_unit_trees():
            assert det_bareiss(build_dq_star(t)) == cf.dq_star_simple(t.n), t.edges


def test_criterion_04_bracket_determinant():
    with criterion(4, "bracket q-determinant equals its closed form, 200 + 1441 trees"):
        for t in corpus_200():
            assert det_bareiss(build_dq(t)) == cf.dq_closed(t.weights), t.edges
        for t in all_unit_trees():
            assert det_bareiss(build_dq(t)) == cf.dq_simple(t.n), t.edges


def test_criterion_05_structure_independence_n6():
    with criterion(5, "all 1296 labeled trees at n=6 share one determinant profile"):
        profiles = set()
        for t in enumerate_trees(6):
            profiles.add(
                tuple(
                    det_bareiss(b(t)).coeffs
                    for b in (build_d, build_dq, build_dq_star, build_d_plus_xJ)
                )
            )
        assert len(profiles) == 1


def test_criterion_06_dodgson_identity():
    with criterion(6, "condensation identity on 300 integer matrices + 50 tree matrices"):
        rng = random.Random(CORPUS_SEED)
        for _ in range(300):
            m = propcheck.random_int_matrix(rng, rng.randint(3, 6))
            assert check_dodgson_identity(m)
        for i in range(50):
            t = random_tree(5 + (i % 2), 4, rng.getrandbits(63))
            assert check_dodgson_identity(build_dq(t)), t.edges


def test_criterion_07_recurrence_and_corner_minor():
    with criterion(7, "four-term recurrence and corner-minor identity, 100 trees"):
        rng = random.Random(CORPUS_SEED + 7)
        for i in range(100):
            n = rng.randint(4, 8)
            t = pendant_first_last(random_tree(n, 4, rng.getrandbits(63)), seed=i)
            dq = build_dq(t)
            b1 = next(w for (u, v, w) in t.edges if 1 in (u, v))
            bn = next(w for (u, v, w) in t.edges if n in (u, v))
            rest = [w for (u, v, w) in t.edges if 1 not in (u, v) and n not in (u, v)]
            total = (
                det_bareiss(dq)
                + qbracket(2 * b1) * det_bareiss(minor(dq, {1}, {1}))
                + qbracket(2 * bn) * det_bareiss(minor(dq, {n}, {n}))
                + qbracket(2 * b1) * qbracket(2 * bn)
                * det_bareiss(minor(dq, {1, n}, {1, n}))
            )
            assert not total, t.edges
            corner = det_bareiss(minor(dq, {1}, {n}))
            assert corner == cf.corner_minor_closed(b1, bn, rest), t.edges


def test_criterion_08_n_table_closed_form():
    with criterion(8, "signed length histogram matches binomial form, n <= 6 + n = 7,8"):
        for t in all_unit_trees():
            assert permlab.perm_tables(t)[0] == binomial_tables(t.n)[0], t.edges
        rng = random.Random(CORPUS_SEED + 8)
        for n in (7, 8):
            for _ in range(10):
                t = random_tree(n, 1, rng.getrandbits(63))
                assert permlab.perm_tables(t)[0] == binomial_tables(n)[0], t.edges
        for n in range(2, permlab.PERM_MAX_N + 1):
            assert cf.dq_star_simple(n) == binomial_tables(n)[0], n


def test_criterion_09_m_table_closed_form_and_determinant():
    with criterion(9, "signed composition counts match binomial form and determinant"):
        for t in all_unit_trees():
            assert permlab.perm_tables(t)[1] == binomial_tables(t.n)[1], t.edges
        rng = random.Random(CORPUS_SEED + 9)
        for n in (7, 8):
            for _ in range(10):
                t = random_tree(n, 1, rng.getrandbits(63))
                assert permlab.perm_tables(t)[1] == binomial_tables(n)[1], t.edges
        for n in range(2, permlab.PERM_MAX_N + 1):
            assert cf.dq_simple(n) == binomial_tables(n)[1], n
        for _ in range(30):
            t = random_tree(rng.randint(2, 7), 4, rng.getrandbits(63))
            assert permlab.perm_tables(t)[1] == det_bareiss(build_dq(t)), t.edges


def test_criterion_10_generating_functions():
    with criterion(10, "generating functions equal determinants, 30 weighted trees"):
        rng = random.Random(CORPUS_SEED + 10)
        for _ in range(30):
            t = random_tree(rng.randint(2, 7), 4, rng.getrandbits(63))
            assert permlab.perm_tables(t) == (det_bareiss(build_dq_star(t)),
                                              det_bareiss(build_dq(t))), t.edges


def test_criterion_11_worked_four_vertex_case():
    with criterion(11, "star and path on 4 vertices with weights (1,2,3) agree"):
        star = star_tree(4, [1, 2, 3])
        path = path_tree(4, [1, 2, 3])
        ds = det_bareiss(build_dq(star))
        dp = det_bareiss(build_dq(path))
        assert ds == dp == cf.dq_closed([1, 2, 3])


def test_criterion_12_property_suites():
    with criterion(12, "property suites (ring axioms, oracles, bijections, duals)"):
        for check in propcheck.ALL_CHECKS:
            check()
