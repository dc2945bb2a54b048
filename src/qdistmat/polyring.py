"""Dense univariate polynomials over arbitrary-precision integers.

A Poly stores its coefficients little-endian by degree in canonical form:
the last stored coefficient is nonzero, and the zero polynomial stores
nothing.  This is the single indeterminate used everywhere in the package;
it plays the role of q in the q-distance matrices and of x in the shifted
distance matrix D(T) + xJ.

The bracket of a nonnegative integer a is the polynomial
1 + q + ... + q^(a-1), with bracket(0) = 0; at q = 1 it evaluates to a.

Products go through one Kronecker codec, ``pack`` at q = 2^b and
``unpack`` to signed base-2^b digits: ``Poly.__mul__``, the pure Bareiss
kernel and ``qmatrix.tree_congruent`` each prove their own width b.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "pack",
    "unpack",
    "qbracket",
    "qpower",
    "ZERO",
    "ONE",
    "Q",
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
        return f'Poly("{self}")'

    _TERM_RE = re.compile(
        r"^(?:(?P<coeff>\d+)\s*\*?\s*)?"  # optional magnitude
        r"(?:q(?:\^(?P<power>\d+))?)?$"  # optional q power
    )

    @classmethod
    def from_string(cls, text: str) -> "Poly":
        """Parse the textual form produced by str()."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        if s == "0":
            return ZERO
        # split into signed terms
        s = s.replace("-", "+-")
        coeffs: dict[int, int] = {}
        for pos, chunk in enumerate(s.split("+")):
            chunk = chunk.strip()
            if not chunk:
                if pos == 0:  # leading minus sign
                    continue
                raise ValueError(f"dangling operator in polynomial {text!r}")
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:].strip()
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group("coeff") is None and "q" not in chunk):
                raise ValueError(f"cannot parse polynomial term {chunk!r}")
            mag = int(m.group("coeff")) if m.group("coeff") else 1
            if "q" in chunk:
                power = int(m.group("power")) if m.group("power") else 1
            else:
                power = 0
            coeffs[power] = coeffs.get(power, 0) + sign * mag
        if not coeffs:
            raise ValueError(f"cannot parse polynomial {text!r}")
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)

    def json_coeffs(self) -> list[str]:
        """Coefficients as decimal strings, little-endian by degree."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[str]) -> "Poly":
        return cls(int(s) for s in items)


def pack(coeffs: Sequence[int], bits: int) -> int:
    """``Poly.eval_int`` at q = 2^bits on a bare sequence, by shift-Horner."""
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def unpack(v: int, bits: int) -> list[int]:
    """The signed base-2^bits digits of v, each in [-2^(bits-1), 2^(bits-1)).

    Little-endian and canonical (0 gives []).  Needs bits >= 2 when v > 0:
    the digits -1 and 0 of bits = 1 spell no positive v.
    """
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> bits
    return out


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return _make((value,) if value else ())
    return NotImplemented


ZERO = _make(())
ONE = _make((1,))
Q = _make((0, 1))


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
