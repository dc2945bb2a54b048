"""Exact q-distance matrices of weighted trees.

Builds the distance matrix of a weighted tree and its two q-analogues,
computes their determinants exactly over the integer polynomial ring, and
checks them against closed-form products and brute-force signed
permutation statistics.
"""

from .permlab import BACKEND as kernel_backend
from .polyring import Poly, qbracket, qpower
from .treekit import (
    InvalidTreeError,
    WeightedTree,
    all_pairs_distances,
    enumerate_trees,
    from_edges,
    path_tree,
    prufer_decode,
    random_tree,
    star_tree,
)
from .qmatrix import build_d, build_d_plus_xJ, build_dq, build_dq_star, minor
from .exactdet import check_dodgson_identity, det_bareiss, det_cofactor

__version__ = "0.1.0"

__all__ = [
    "kernel_backend",
    "Poly",
    "qbracket",
    "qpower",
    "WeightedTree",
    "InvalidTreeError",
    "from_edges",
    "prufer_decode",
    "enumerate_trees",
    "random_tree",
    "path_tree",
    "star_tree",
    "all_pairs_distances",
    "build_d",
    "build_dq",
    "build_dq_star",
    "build_d_plus_xJ",
    "minor",
    "det_bareiss",
    "det_cofactor",
    "check_dodgson_identity",
]
