"""Permutation statistics: oracles, closed forms, generating functions."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import propcheck
from propcheck import binomial_tables
from qdistmat import closedforms, permlab
from qdistmat.exactdet import det_bareiss
from qdistmat.permlab import (
    Permutation,
    length_on_tree,
    perm_tables,
    phi_count_direct,
    phi_count_poly,
    sign,
)
from qdistmat.polyring import Poly, qbracket, qpower
from qdistmat.qmatrix import build_dq, build_dq_star
from qdistmat.treekit import (
    all_pairs_distances,
    enumerate_trees,
    from_edges,
    path_tree,
    random_tree,
    star_tree,
)


def test_permutation_validation():
    Permutation([2, 1, 3])
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    # integers only, as the tree constructors take them
    for images in ([1.0, "2"], [1.0, 2], [2, "1"], [True, 2]):
        with pytest.raises(ValueError):
            Permutation(images)


def test_sign_examples():
    assert sign(Permutation([1, 2, 3, 4])) == 1
    assert sign(Permutation([2, 1, 3])) == -1
    assert sign(Permutation([2, 3, 1])) == 1
    assert sign(Permutation([4, 3, 2, 1])) == 1
    assert sign(Permutation([2, 1, 4, 3])) == 1
    assert sign(Permutation([3, 2, 1])) == -1


def test_pure_sweep_signs_match_sign():
    # the pure sweep's parities, built by blocks, against the cycle count
    for n in range(8):
        perms = list(itertools.permutations(range(1, n + 1)))
        signs = permlab._perm_signs(n)
        assert len(signs) == len(perms)
        for odd, p in zip(signs, perms):
            assert (-1 if odd else 1) == sign(Permutation(p)), p


def test_length_examples():
    p3 = all_pairs_distances(path_tree(3, [1, 1]))
    assert length_on_tree(Permutation([1, 2, 3]), p3) == 0
    assert length_on_tree(Permutation([2, 1, 3]), p3) == 2
    assert length_on_tree(Permutation([2, 3, 1]), p3) == 4
    with pytest.raises(ValueError):
        length_on_tree(Permutation([1, 2]), p3)


def test_n_table_p3():
    assert perm_tables(path_tree(3, [1, 1]))[0] == Poly([1, 0, -2, 0, 1])


def test_n_table_structure_independence_n4():
    s = perm_tables(star_tree(4, [1, 1, 1]))[0]
    p = perm_tables(path_tree(4, [1, 1, 1]))[0]
    assert s == p


def test_n_table_sums_to_zero():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tree(rng.randint(2, 7), 3, rng.getrandbits(63))
        assert sum(perm_tables(t)[0].coeffs) == 0


def test_n_closed_examples():
    # the binomial N-table the sweep and closedforms are checked against
    assert binomial_tables(3)[0].coeff(2) == -2
    assert binomial_tables(5)[0].coeff(3) == 0
    assert binomial_tables(4)[0].coeff(6) == -1
    assert binomial_tables(4)[0].coeff(8) == 0
    assert binomial_tables(3)[0] == Poly([1, 0, -2, 0, 1])


def test_phi_count_fixed_point():
    d = all_pairs_distances(path_tree(3, [1, 1]))
    for k in range(5):
        assert phi_count_direct(Permutation([1, 3, 2]), d, k) == 0
    assert phi_count_poly(Permutation([1, 3, 2]), d) == Poly()


def test_phi_count_examples():
    d = all_pairs_distances(path_tree(3, [1, 1]))
    cyc = Permutation([2, 3, 1])  # bounds 1, 1, 2
    assert phi_count_direct(cyc, d, 0) == 1
    assert phi_count_direct(cyc, d, 1) == 1
    assert phi_count_direct(cyc, d, 2) == 0
    assert phi_count_poly(cyc, d) == Poly([1, 1])


def test_phi_dual_oracles():
    propcheck.check_phi_dual_oracles()


def literal_tables(t):
    # both tables from their definitions, one Permutation object at a time
    d = all_pairs_distances(t)
    n_table = m_table = Poly()
    for images in itertools.permutations(range(1, t.n + 1)):
        p = Permutation(images)
        n_table += sign(p) * qpower(length_on_tree(p, d))
        m_table += sign(p) * phi_count_poly(p, d)
    return n_table, m_table


def literal_route_trees():
    for n in range(2, 6):
        yield from enumerate_trees(n)
    rng = random.Random(16)
    for _ in range(20):
        yield random_tree(rng.randint(2, 6), 4, rng.getrandbits(63))


def test_tables_match_their_definitions():
    # every labelled tree with n <= 5 and 20 weighted trees with n <= 6
    for t in literal_route_trees():
        assert perm_tables(t) == literal_tables(t), t.edges


def test_m_table_p3():
    assert perm_tables(path_tree(3, [1, 1]))[1] == Poly([2, 2])


def test_m_table_n4_both_shapes():
    for t in (path_tree(4, [1, 1, 1]), star_tree(4, [1, 1, 1])):
        assert perm_tables(t)[1] == Poly([-3, -6, -3])


def test_m_table_matches_determinant_weighted():
    rng = random.Random(10)
    for _ in range(20):
        t = random_tree(rng.randint(2, 6), 3, rng.getrandbits(63))
        assert perm_tables(t)[1] == det_bareiss(build_dq(t)), t.edges


def test_m_closed_examples():
    assert binomial_tables(3)[1].coeff(1) == 2
    assert binomial_tables(4)[1].coeff(1) == -6
    assert binomial_tables(2)[1].coeff(0) == -1
    assert binomial_tables(4)[1] == Poly([-3, -6, -3])


def test_closed_tables_match_product_forms():
    # binomial coefficients on one side, (1 - q^2)^(n-1) and (1 + q)^(n-2) on the other
    for n in range(2, 13):
        assert binomial_tables(n) == (closedforms.dq_star_simple(n), closedforms.dq_simple(n)), n


def test_closed_forms_match_oracles_exhaustive_small():
    for n in range(2, 6):
        tables = binomial_tables(n)
        for t in enumerate_trees(n):
            assert perm_tables(t) == tables, t.edges


def test_closed_forms_match_oracles_random_78():
    rng = random.Random(78)
    for i in range(50):
        n = 7 + (i % 2)
        t = random_tree(n, 1, rng.getrandbits(63))
        assert perm_tables(t) == binomial_tables(n), t.edges


def test_closed_forms_at_perm_cap():
    # the largest supported sweep: 362880 permutations
    t = random_tree(permlab.PERM_MAX_N, 1, seed=90)
    assert perm_tables(t) == binomial_tables(t.n)


def test_n_odd_vanishes_simple():
    rng = random.Random(12)
    for _ in range(20):
        t = random_tree(rng.randint(2, 7), 1, rng.getrandbits(63))
        assert not any(perm_tables(t)[0].coeffs[1::2]), t.edges


def test_m_sum_is_graham_pollak():
    for n in range(2, 7):
        t = random_tree(n, 1, seed=n)
        total = sum(perm_tables(t)[1].coeffs)
        assert total == -(n - 1) * (-2) ** (n - 2)


def test_perm_cap():
    t = random_tree(permlab.PERM_MAX_N + 1, 1, 0)
    with pytest.raises(ValueError):
        perm_tables(t)


def _generating_functions_hold(t):
    return perm_tables(t) == (det_bareiss(build_dq_star(t)), det_bareiss(build_dq(t)))


def test_generating_function_check():
    t = path_tree(3, [1, 1])
    assert _generating_functions_hold(t)
    assert det_bareiss(build_dq_star(t)) == Poly([1, 0, -2, 0, 1])
    assert det_bareiss(build_dq(t)) == Poly([2, 2])


def test_generating_functions_random_weighted():
    rng = random.Random(14)
    for _ in range(15):
        t = random_tree(rng.randint(2, 7), 3, rng.getrandbits(63))
        assert _generating_functions_hold(t), t.edges


def test_generating_functions_n2_weighted():
    alpha = 3
    t = from_edges(2, [(1, 2, alpha)])
    assert perm_tables(t) == (Poly([1] + [0] * (2 * alpha - 1) + [-1]),
                              -(qbracket(alpha) * qbracket(alpha)))
    assert _generating_functions_hold(t)


def _imported_modules(source: str):
    """Absolute names of every module an import in ``source`` can bind."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import in qdistmat/permlab.py resolves against qdistmat
            base = ".".join(filter(None, ["qdistmat" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_oracle_imports_no_determinant_code():
    # the oracle checks the elimination route, so it must not share its code
    imported = set(_imported_modules(Path(permlab.__file__).read_text()))
    assert "qdistmat.polyring" in imported
    assert not imported & {"qdistmat.exactdet", "qdistmat.qmatrix"}
