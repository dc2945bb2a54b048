"""Wiener polynomial and Wiener index of a weighted tree."""

from __future__ import annotations

from .polyring import Poly
from .treekit import WeightedTree, all_pairs_distances

__all__ = ["wiener_poly", "wiener_index"]


def wiener_poly(t: WeightedTree) -> Poly:
    """Sum over unordered vertex pairs of q^d(u, v)."""
    coeffs = [0]
    for i, row in enumerate(all_pairs_distances(t)):
        for d in row[i + 1:]:
            if d >= len(coeffs):
                coeffs.extend([0] * (d - len(coeffs) + 1))
            coeffs[d] += 1
    return Poly(coeffs)


def wiener_index(t: WeightedTree) -> int:
    """Derivative of the Wiener polynomial at 1: the sum of all pairwise distances."""
    return wiener_poly(t).derivative_at_one()
