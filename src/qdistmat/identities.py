"""The identity suite: every executable identity of the paper, for one tree.

Each tree's four matrices D, D + xJ, D*_q and D_q are built once and each
of their determinants is taken once; every check compares values already
in hand.  Each matrix is first taken to its tree-congruent form
(``qmatrix.tree_congruent``): three arrowheads and a diagonal matrix,
with at most 3n - 2 nonzeros, which keep the determinant, and for D_q
every minor at non-root leaves, and pack far narrower.  The suite checks

- the four determinants against their closed forms (Bapat-Kirkland-Neumann
  for D and D + xJ, a product over the edges for D*_q and a sum over the
  edges for D_q);
- on unit-weight trees, Graham-Pollak and the two simple-tree corollaries;
- from n = 3, the condensation identity on D_q and the corner-minor
  formula, and from n = 4 the four-term recurrence, on minors of the same
  D_q at the tree's smallest and largest leaf labels u < v, taken from
  its congruent form, whose root is no leaf.  The paper states the last
  two with v_1 and v_n pendant; relabelling u -> 1 and v -> n conjugates
  D_q by a permutation, which keeps principal minors and moves the (u, v)
  cofactor to (1, n) unchanged;
- up to n = GENFUN_MAX_N (8), the generating-function identities: the
  brute-force permutation tables N and M, both from one sweep over the n!
  permutations (``permlab.perm_tables``), against det D*_q and det D_q.

Every result depends only on the weighted tree up to a relabelling that
keeps the leaf pair; ``suite_key`` names that class and says why, so a
sweep runs the suite once per key.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import closedforms, permlab
from .exactdet import check_dodgson_identity, det_bareiss
from .polyring import Poly, qbracket
from .qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star, minor, tree_congruent
from .treekit import WeightedTree, canonical_order

__all__ = ["GENFUN_MAX_N", "DetCheck", "det_checks", "identity_suite", "suite_key"]

# Largest n whose trees get the generating-function checks.  The sweep
# costs n! steps; permlab.PERM_MAX_N = 9 is the cap of the sweep itself.
# The benchmark's expected check counts (perfbench/workloads.py) assume 8.
GENFUN_MAX_N = 8


@dataclass(frozen=True)
class DetCheck:
    name: str
    matrix: tuple  # the rows the determinant is taken of, in tree-congruent form
    determinant: Poly
    closed: Poly

    @property
    def passed(self) -> bool:
        return self.determinant == self.closed


def det_checks(t: WeightedTree) -> list[DetCheck]:
    """Each matrix's determinant against its closed form: D, D+xJ, Dq*, Dq.

    Each matrix is taken in its tree-congruent form, which has the same
    determinant: D and D + xJ with multiplier 1 (two arrowheads), D*_q and
    D_q with multiplier q^(w_v) (a diagonal matrix and an arrowhead).
    """
    ws = t.weights
    return [DetCheck(name, m, det_bareiss(m), closed) for name, m, closed in (
        ("D", tree_congruent(t, build_d(t), unit=True), Poly([closedforms.bkn_det(ws)])),
        ("D+xJ", tree_congruent(t, build_d_plus_xJ(t), unit=True), closedforms.bkn_det_xj(ws)),
        ("Dq*", tree_congruent(t, build_dq_star(t)), closedforms.dq_star_closed(ws)),
        ("Dq", tree_congruent(t, build_dq(t)), closedforms.dq_closed(ws)),
    )]


def _leaf_pair(t: WeightedTree) -> tuple[int, int]:
    """The suite's u and v: the tree's smallest and largest leaf labels."""
    leaves = t.pendant_vertices()
    return leaves[0], leaves[-1]


def identity_suite(t: WeightedTree) -> tuple[list[tuple[str, bool]], tuple[Poly, ...]]:
    """Every executable identity for one tree.

    Returns the (name, passed) pairs in a fixed order, and the determinant
    profile (det D, det(D + xJ), det D*_q, det D_q), in ``det_checks``
    order, which depends only on the weight multiset if the paper's main
    results hold.  The condensation, corner-minor and recurrence checks
    share one memoized ``det`` on the congruent D_q, so its determinant and
    each of its five leaf minors are taken once.
    """
    n = t.n
    checks = det_checks(t)
    det_d, _, det_dq_star, det_dq = (c.determinant for c in checks)
    results = [(f"det({c.name})==closed", c.passed) for c in checks]
    if t.is_simple():
        results += [("graham_pollak", det_d == closedforms.graham_pollak(n)),
                    ("dq_simple", det_dq == closedforms.dq_simple(n)),
                    ("dq_star_simple", det_dq_star == closedforms.dq_star_simple(n))]
    if n >= 3:
        dq = checks[3].matrix

        @functools.cache
        def det(rows, cols):
            return det_bareiss(minor(dq, rows, cols)) if rows else det_dq

        u, v = _leaf_pair(t)
        results.append(("dodgson_identity", check_dodgson_identity(dq, (u, v), det)))
        (_, w_u), = t.adjacency()[u]
        (_, w_v), = t.adjacency()[v]
        rest = [w for (a, b, w) in t.edges if u not in (a, b) and v not in (a, b)]
        corner = (-1) ** (u + v + n + 1) * det((u,), (v,))
        results.append(
            ("corner_minor", corner == closedforms.corner_minor_closed(w_u, w_v, rest))
        )
        if n >= 4:
            lhs = (
                det_dq
                + qbracket(2 * w_u) * det((u,), (u,))
                + qbracket(2 * w_v) * det((v,), (v,))
                + qbracket(2 * w_u) * qbracket(2 * w_v) * det((u, v), (u, v))
            )
            results.append(("recurrence16", not lhs))
    if n <= GENFUN_MAX_N:
        n_table, m_table = permlab.perm_tables(t)
        results.append(("genfun_N", n_table == det_dq_star))
        results.append(("genfun_M", m_table == det_dq))
    return results, tuple(c.determinant for c in checks)


def suite_key(t: WeightedTree) -> tuple:
    """A key that fixes every result of ``identity_suite``: equal keys, equal results.

    The key is the edge list relabelled by ``canonical_order`` position, as
    a sorted tuple of (min, max, weight), with the canonical positions of
    the suite's leaves u and v (None when n < 3).  Two trees with equal
    keys are therefore related by a relabelling phi, position to position,
    that maps edges to edges of the same weight, u to u and v to v: an
    isomorphism of weighted trees.  Every result of the suite is unchanged
    by such a relabelling, which conjugates each matrix M to P M P^T:

    - the four determinants, and with them the closed-form checks and the
      profile, are unchanged (det P = +-1 twice), and so are the principal
      minors of D_q that the recurrence takes;
    - adj(P M P^T) = P adj(M) P^T, so the (u, v) cofactor of the
      corner-minor check is unchanged, and so are the products
      det M_{u,v} det M_{v,u} of the condensation identity, whose two
      factors are cofactors up to the same sign;
    - whether the tree is simple, the weights of the edges at u and v and
      the other weights are properties of the weighted tree;
    - the permutation tables N and M are Leibniz sums over all
      permutations, which conjugation by phi permutes.

    Keying on the relabelled tree itself, never on an encoding of it, keeps
    the key sound whatever ``canonical_order`` returns: a poor order can
    only split a class into several keys.
    """
    position = [0] * (t.n + 1)
    for k, v in enumerate(canonical_order(t)):
        position[v] = k
    edges = tuple(sorted((min(position[a], position[b]), max(position[a], position[b]), w)
                         for a, b, w in t.edges))
    if t.n < 3:
        return edges, None
    u, v = _leaf_pair(t)
    return edges, (position[u], position[v])
