"""Signed permutation statistics on trees, by brute force.

Two tables per tree: the signed histogram of permutation lengths
sum_i d(v_i, v_sigma(i)) (the N-table), and the signed count of bounded
compositions below those distances (the M-table).  Both have generating
functions equal to determinants of the q-distance matrices, which the
report helpers check coefficient by coefficient; for simple trees both
also have binomial closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import _kernels
from .exactdet import det_bareiss
from .polyring import ONE, Poly, qbracket
from .qmatrix import build_dq, build_dq_star
from .treekit import DistanceTable, WeightedTree, all_pairs_distances

__all__ = [
    "PERM_MAX_N",
    "Permutation",
    "PermStats",
    "sign",
    "length_on_tree",
    "n_table_oracle",
    "m_table_oracle",
    "n_table_from_det",
    "m_table_from_det",
    "n_closed",
    "m_closed",
    "n_closed_table",
    "m_closed_table",
    "phi_count_direct",
    "phi_count_poly",
    "GenFunctionReport",
    "generating_function_check",
]

PERM_MAX_N = 9


class Permutation:
    """A permutation of 1..n given by its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        self.images = images

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def sign(p: Permutation) -> int:
    """Parity via cycle decomposition: (-1)^(n - number of cycles)."""
    images = p.images
    n = len(images)
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = images[v - 1]
    return -1 if (n - cycles) % 2 else 1


def length_on_tree(p: Permutation, d: DistanceTable) -> int:
    """Tree length of a permutation: sum over i of d(v_i, v_sigma(i))."""
    if len(p) != d.n:
        raise ValueError(f"permutation of size {len(p)} on table of size {d.n}")
    rows = d.rows
    return sum(rows[i][p.images[i] - 1] for i in range(d.n))


@dataclass(frozen=True)
class PermStats:
    """Signed coefficient table N_{n,k} or M_{n,k} with its provenance."""

    kind: str  # "N" or "M"
    n: int
    coeffs: Mapping[int, int] = field(hash=False)
    source: str = "oracle"  # "oracle" or "determinant"

    def coeff(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    def max_k(self) -> int:
        return max(self.coeffs, default=0)

    def as_poly(self) -> Poly:
        if not self.coeffs:
            return Poly()
        out = [0] * (self.max_k() + 1)
        for k, v in self.coeffs.items():
            out[k] = v
        return Poly(out)

    def same_table(self, other: "PermStats") -> bool:
        return self.kind == other.kind and self.n == other.n and dict(
            self.coeffs
        ) == dict(other.coeffs)

    def to_json_dict(self) -> dict:
        ordered = {str(k): self.coeffs[k] for k in sorted(self.coeffs)}
        return {"kind": self.kind, "n": self.n, "coeffs": ordered, "source": self.source}

    def to_csv_rows(self, k_max: int | None = None) -> list[tuple[int, int]]:
        """Dense (k, value) rows from 0 through max_k (or k_max)."""
        top = self.max_k() if k_max is None else k_max
        return [(k, self.coeff(k)) for k in range(top + 1)]


def _check_perm_n(n: int):
    if n > PERM_MAX_N:
        raise ValueError(f"permutation sweeps capped at n = {PERM_MAX_N} (n! cost)")


def n_table_oracle(t: WeightedTree) -> PermStats:
    """Signed length histogram over all n! permutations."""
    _check_perm_n(t.n)
    dist = all_pairs_distances(t).rows
    table = _kernels.perm_n_table(dist, t.n)
    return PermStats("N", t.n, dict(table), "oracle")


def m_table_oracle(t: WeightedTree) -> PermStats:
    """Signed bounded-composition counts over all n! permutations.

    Internally sums per-permutation bracket products, whose k-th
    coefficients are exactly the composition counts; phi_count_direct is
    the independent route used to cross-check that equivalence.
    """
    _check_perm_n(t.n)
    dist = all_pairs_distances(t).rows
    coeffs = _kernels.perm_m_coeffs(dist, t.n)
    return PermStats("M", t.n, {k: c for k, c in enumerate(coeffs) if c}, "oracle")


def n_table_from_det(t: WeightedTree) -> PermStats:
    """N-table read off the determinant of the monomial q-distance matrix."""
    det = det_bareiss(build_dq_star(t))
    return PermStats("N", t.n, {k: c for k, c in enumerate(det.coeffs) if c}, "determinant")


def m_table_from_det(t: WeightedTree) -> PermStats:
    """M-table read off the determinant of the bracket q-distance matrix."""
    det = det_bareiss(build_dq(t))
    return PermStats("M", t.n, {k: c for k, c in enumerate(det.coeffs) if c}, "determinant")


def n_closed(n: int, k: int) -> int:
    """Closed form for simple trees: 0 for odd k, else (-1)^(k/2) C(n-1, k/2)."""
    if n < 2 or k < 0:
        raise ValueError("needs n >= 2 and k >= 0")
    if k % 2:
        return 0
    half = k // 2
    return (-1) ** half * math.comb(n - 1, half)


def m_closed(n: int, k: int) -> int:
    """Closed form for simple trees: (-1)^(n-1) (n-1) C(n-2, k)."""
    if n < 2 or k < 0:
        raise ValueError("needs n >= 2 and k >= 0")
    return (-1) ** (n - 1) * (n - 1) * math.comb(n - 2, k)


def n_closed_table(n: int) -> dict[int, int]:
    """Nonzero closed-form N coefficients (supported on even k <= 2(n-1))."""
    return {k: n_closed(n, k) for k in range(0, 2 * n - 1, 2)}


def m_closed_table(n: int) -> dict[int, int]:
    """Nonzero closed-form M coefficients (supported on k <= n-2)."""
    return {k: m_closed(n, k) for k in range(n - 1)}


def _phi_bounds(p: Permutation, d: DistanceTable) -> list[int]:
    if len(p) != d.n:
        raise ValueError(f"permutation of size {len(p)} on table of size {d.n}")
    return [d.rows[i][p.images[i] - 1] for i in range(d.n)]


def phi_count_direct(p: Permutation, d: DistanceTable, k: int) -> int:
    """Count compositions x_1+...+x_n = k with 0 <= x_i < d(v_i, v_sigma(i)).

    Dynamic programming over positions; a zero bound (in particular any
    fixed point of the permutation) makes every equation unsatisfiable.
    """
    if k < 0:
        return 0
    bounds = _phi_bounds(p, d)
    if any(b == 0 for b in bounds):
        return 0
    ways = [0] * (k + 1)
    ways[0] = 1
    for b in bounds:
        nxt = [0] * (k + 1)
        for s in range(k + 1):
            total = 0
            for x in range(min(b - 1, s) + 1):
                total += ways[s - x]
            nxt[s] = total
        ways = nxt
    return ways[k]


def phi_count_poly(p: Permutation, d: DistanceTable) -> Poly:
    """Generating polynomial of the composition counts: prod of brackets.

    The k-th coefficient equals phi_count_direct(p, d, k) for every k.
    """
    acc = ONE
    for b in _phi_bounds(p, d):
        acc = acc * qbracket(b)
        if not acc:
            break
    return acc


@dataclass(frozen=True)
class GenFunctionReport:
    """Coefficient-level comparison of oracle tables and determinants."""

    n: int
    n_oracle: PermStats
    m_oracle: PermStats
    n_det: PermStats
    m_det: PermStats

    @property
    def n_ok(self) -> bool:
        return self.n_oracle.same_table(self.n_det)

    @property
    def m_ok(self) -> bool:
        return self.m_oracle.same_table(self.m_det)

    @property
    def ok(self) -> bool:
        return self.n_ok and self.m_ok


def generating_function_check(t: WeightedTree) -> GenFunctionReport:
    """Check both generating-function identities on one tree (n <= 8)."""
    if t.n > 8:
        raise ValueError("generating-function check capped at n = 8")
    return GenFunctionReport(
        n=t.n,
        n_oracle=n_table_oracle(t),
        m_oracle=m_table_oracle(t),
        n_det=n_table_from_det(t),
        m_det=m_table_from_det(t),
    )
