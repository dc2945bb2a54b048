"""Dense univariate polynomials over arbitrary-precision integers.

A Poly stores its coefficients little-endian by degree in canonical form:
the last stored coefficient is nonzero, and the zero polynomial stores
nothing.  This is the single indeterminate used everywhere in the package;
it plays the role of q in the q-distance matrices and of x in the shifted
distance matrix D(T) + xJ.

The bracket of a nonnegative integer a is the polynomial
1 + q + ... + q^(a-1), with bracket(0) = 0; at q = 1 it evaluates to a.

Products go through one Kronecker codec, ``pack`` at q = 2^b and
``unpack`` to signed base-2^b digits: ``Poly.__mul__``, the elimination
(``exactdet.bareiss_det``) and ``qmatrix.tree_congruent`` each prove their
own width b.  Both
halves of the codec divide and conquer at power-of-two digit counts, so
their cost grows as the packed length times its logarithm.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "pack",
    "unpack",
    "qbracket",
    "qpower",
    "ZERO",
    "ONE",
    "NEG_INF",
]

NEG_INF = float("-inf")


def _make(coeffs) -> "Poly":
    # trusted constructor: coeffs already canonical, ints only
    p = Poly.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(coeffs))
    return p


class Poly:
    """Immutable dense polynomial with int coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError("Poly is immutable")
        object.__setattr__(self, name, value)

    # -- ring structure ------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return _make(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        """Exact product: one integer product of the operands packed at q = 2^bits.

        Each coefficient of a*b is a sum of at most s = min(len a, len b)
        terms, each at most max|a| max|b| in absolute value.  So with
        bits = bit_length(s max|a| max|b|) + 1 every coefficient lies in
        (-2^(bits-1), 2^(bits-1)) and is one signed digit that ``unpack``
        reads back; its last digit is nonzero, so the result is canonical.
        """
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        bits = (min(len(a), len(b)) * max(map(abs, a), default=0)
                * max(map(abs, b), default=0)).bit_length() + 1
        return _make(unpack(pack(a, bits) * pack(b, bits), bits))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, or the -inf sentinel for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int) -> int:
        """Coefficient of the k-th power (0 beyond the stored length)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def eval_int(self, t: int) -> int:
        """Horner evaluation at an integer point."""
        t = operator.index(t)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative_at_one(self) -> int:
        """Value of the derivative at 1, i.e. sum_k k * coeff(k)."""
        return sum(k * c for k, c in enumerate(self.coeffs))

    # -- serialization ---------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def json_coeffs(self) -> list[str]:
        """Coefficients as decimal strings, little-endian by degree."""
        return [str(c) for c in self.coeffs]


# Up to this many digits pack and unpack run the digit loop, whose every
# shift copies the whole integer; above it they split in two.
_LEAF_DIGITS = 32


def pack(coeffs: Sequence[int], bits: int) -> int:
    """``Poly.eval_int`` at q = 2^bits on a bare sequence.

    Shift-Horner up to ``_LEAF_DIGITS`` digits; above, the low h digits
    (h the largest power of two below the length) plus the rest shifted
    by h*bits.
    """
    n = len(coeffs)
    if n <= _LEAF_DIGITS:
        v = 0
        for c in reversed(coeffs):
            v = (v << bits) + c
        return v
    h = 1 << ((n - 1).bit_length() - 1)
    return pack(coeffs[:h], bits) + (pack(coeffs[h:], bits) << (h * bits))


def unpack(v: int, bits: int) -> list[int]:
    """The signed base-2^bits digits of v, each in [-2^(bits-1), 2^(bits-1)).

    Little-endian and canonical (0 gives []).  Needs bits >= 2 when v > 0,
    and raises ValueError otherwise: the digits -1 and 0 of bits = 1 spell
    no positive v.

    Above ``_LEAF_DIGITS`` digits: if v has N digits d_i, then for any
    n >= N, u = v + sum_{i<n} 2^(bits-1) 2^(i bits) has the unsigned digits
    d_i + 2^(bits-1), which ``_biased_digits`` reads by halves.  The n
    below exceeds (bit_length(v) + 1) / bits, and N <= that + 1: for
    bits >= 2 a nonzero top digit leaves |v| > 2^((N-1) bits) / 3, and for
    bits = 1 (so v < 0) N is the bit length of v.
    """
    if v > 0 and bits < 2:
        raise ValueError(f"no base-2^{bits} signed digits spell {v} > 0")
    half = 1 << (bits - 1)
    if v.bit_length() <= _LEAF_DIGITS * bits:
        mask = (1 << bits) - 1
        out = []
        while v:
            d = ((v + half) & mask) - half
            out.append(d)
            v = (v - d) >> bits
        return out
    n, ones = 1, 1
    while n * bits <= v.bit_length() + 1:
        ones |= ones << (n * bits)
        n *= 2
    out = _biased_digits(v + half * ones, bits, n)
    while not out[-1]:
        out.pop()
    return out


def _biased_digits(u: int, bits: int, n: int) -> list[int]:
    # the n base-2^bits digits of u, less 2^(bits-1) each; n a power of two
    if n <= _LEAF_DIGITS:
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        out = []
        for _ in range(n):
            out.append((u & mask) - half)
            u >>= bits
        return out
    width = n // 2 * bits
    return (_biased_digits(u & ((1 << width) - 1), bits, n // 2)
            + _biased_digits(u >> width, bits, n // 2))


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return _make((value,) if value else ())
    return NotImplemented


ZERO = _make(())
ONE = _make((1,))


def qbracket(alpha: int) -> Poly:
    """Bracket polynomial 1 + q + ... + q^(alpha-1); bracket(0) is 0."""
    alpha = operator.index(alpha)
    if alpha < 0:
        raise ValueError("bracket of a negative integer")
    return _make((1,) * alpha)


def qpower(alpha: int) -> Poly:
    """Monomial q^alpha."""
    alpha = operator.index(alpha)
    if alpha < 0:
        raise ValueError("negative power of q")
    return _make((0,) * alpha + (1,))
