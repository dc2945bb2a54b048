"""Closed-form determinant formulas, as exact polynomials.

Every formula depends only on the multiset of edge weights (or only on the
vertex count), never on the tree shape; the test suite checks each one
against the corresponding exact determinant.  All arithmetic stays in the
integer polynomial ring.  The bracket determinant det D_q is one sum over
the edges, equal to the paper's sum over pairs of edges (see
``dq_closed``).

This is the package's one module of closed forms.  ``dq_star_simple`` and
``dq_simple`` are also the binomial N- and M-tables of a simple tree, which
``perm-table`` prints next to the ``permlab`` sweep, and ``bkn_det`` is the
constant term of ``bkn_det_xj``.
"""

from __future__ import annotations

from typing import Sequence

from .polyring import ONE, Poly, _make, qbracket, qpower
from .treekit import as_int

__all__ = [
    "graham_pollak",
    "bkn_det_xj",
    "bkn_det",
    "dq_star_closed",
    "dq_closed",
    "corner_minor_closed",
    "dq_star_simple",
    "dq_simple",
]

WeightMultiset = Sequence[int]


def _check_weights(weights: WeightMultiset) -> tuple[int, ...]:
    ws = tuple(map(as_int, weights))
    if not ws:
        raise ValueError("need at least 1 edge weight")
    if any(w < 1 for w in ws):
        raise ValueError("edge weights must be positive integers")
    return ws


def _check_n(n: int) -> int:
    n = as_int(n)
    if n < 2:
        raise ValueError("needs n >= 2")
    return n


def graham_pollak(n: int) -> int:
    """Determinant of a simple tree's distance matrix: -(n-1)(-2)^(n-2)."""
    n = _check_n(n)
    return -(n - 1) * (-2) ** (n - 2)


def bkn_det_xj(weights: WeightMultiset) -> Poly:
    """det(D(T) + xJ) as a degree-1 polynomial in x.

    Equals (-1)^(n-1) 2^(n-2) (prod w) (2x + sum w) for a weighted tree
    with n-1 edges.
    """
    ws = _check_weights(weights)
    n = len(ws) + 1
    scale = (-1) ** (n - 1) * 2 ** (n - 2)
    prod = 1
    for w in ws:
        prod *= w
    return _make((scale * prod * sum(ws), scale * prod * 2))


def bkn_det(weights: WeightMultiset) -> int:
    """det(D(T)) = (-1)^(n-1) 2^(n-2) (prod w) (sum w).

    It is the constant term of ``bkn_det_xj``: D(T) + xJ at x = 0 is D(T).
    """
    return bkn_det_xj(weights).coeff(0)


def dq_star_closed(weights: WeightMultiset) -> Poly:
    """det of the monomial q-distance matrix: prod over edges of 1 - q^(2w)."""
    ws = _check_weights(weights)
    acc = ONE
    for w in ws:
        acc = acc * (ONE - qpower(2 * w))
    return acc


def dq_closed(weights: WeightMultiset) -> Poly:
    """det of the bracket q-distance matrix, from the weight multiset alone.

    For a tree with n vertices and edge weights w_1, ..., w_m (m = n - 1):

        det D_q = (-1)^(n-1) sum_e [w_e]^2 prod_{e' != e} [2 w_e'],

    accumulated in one pass over the weights with four products per edge.

    The paper states it for n >= 4 as (-1)^(n-1) times a sum over m index
    pairs, (1,2), (m-1,m) and (i,i+2) for i = 1..m-2, of
    [w_i][w_j][w_i + w_j] prod_{k != i,j} [2 w_k], with separate formulas
    -[w_1]^2 for n = 2 and 2[w_1][w_2][w_1 + w_2] for n = 3.  Every index
    lies in exactly two of those pairs.  With y_k = 1 + q^(w_k),
    [2w] = [w] y and (1-q)[a+b] = y_a + y_b - y_a y_b, so the pair term is
    prod [w] / (1-q) * prod y * (1/y_i + 1/y_j - 1).  Summed over the pairs
    this is prod [w] prod y / (1-q) * sum_k (2 - y_k) / y_k, and since
    2 - y_k = (1-q)[w_k] it equals sum_k [w_k]^2 prod_{l != k} [2 w_l].
    The sum gives the n = 2 and n = 3 formulas as well.
    """
    ws = _check_weights(weights)
    acc, prod = Poly(), ONE
    for w in ws:
        b, b2 = qbracket(w), qbracket(2 * w)
        acc = acc * b2 + b * b * prod
        prod = prod * b2
    return acc if len(ws) % 2 == 0 else -acc


def corner_minor_closed(w_first: int, w_last: int, w_rest: WeightMultiset) -> Poly:
    """det of the corner minor (first row, last column deleted).

    For a tree whose vertices v_1 and v_n are pendant with pendant-edge
    weights w_first and w_last: [w_first][w_last] prod [2w] over the rest.
    """
    w_first, w_last, *rest = _check_weights((w_first, w_last, *w_rest))
    acc = qbracket(w_first) * qbracket(w_last)
    for w in rest:
        acc = acc * qbracket(2 * w)
    return acc


def dq_star_simple(n: int) -> Poly:
    """Simple-tree case of the monomial determinant: (1 - q^2)^(n-1)."""
    n = _check_n(n)
    return (ONE - qpower(2)) ** (n - 1)


def dq_simple(n: int) -> Poly:
    """Simple-tree case of the bracket determinant: (-1)^(n-1)(n-1)(1+q)^(n-2)."""
    n = _check_n(n)
    base = _make((1, 1)) ** (n - 2)
    return (-1) ** (n - 1) * (n - 1) * base
