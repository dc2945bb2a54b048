"""Polynomial ring: arithmetic, brackets, serialization, the Kronecker codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propcheck
from qdistmat.polyring import (
    NEG_INF,
    Poly,
    ZERO,
    pack,
    qbracket,
    qpower,
    unpack,
)
from qdistmat.polyring import _LEAF_DIGITS

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=12)
polys = coeff_lists.map(Poly)


def test_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().coeffs == ()


def test_degree_sentinel():
    assert Poly([5]).degree == 0
    assert Poly([0, 0, 3]).degree == 2
    assert Poly().degree == NEG_INF


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        Poly([1.5])


def test_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_add_examples():
    assert Poly([1, 1]) + Poly([-1, -1]) == ZERO
    assert ZERO + Poly([1, 0, 1]) == Poly([1, 0, 1])
    assert Poly([1, 1]) + Poly([1, 1]) == Poly([2, 2])


def test_mul_examples():
    assert Poly([1, 1]) * Poly([1, 1, 1]) == Poly([1, 2, 2, 1])
    assert Poly([3, -2, 7]) * ZERO == ZERO
    assert Poly([1, -1]) * Poly([1, 1, 1]) == Poly([1, 0, 0, -1])


def test_int_operands():
    assert 2 * Poly([1, 1]) == Poly([2, 2])
    assert Poly([1, 1]) + 1 == Poly([2, 1])
    assert 1 - Poly([0, 0, 1]) == Poly([1, 0, -1])


def test_qbracket_examples():
    assert qbracket(0) == ZERO
    assert qbracket(1) == Poly([1])
    assert qbracket(3) == Poly([1, 1, 1])
    with pytest.raises(ValueError):
        qbracket(-1)


def test_qpower_examples():
    assert qpower(0) == Poly([1])
    assert qpower(2) == Poly([0, 0, 1])
    assert qpower(5).coeffs == (0, 0, 0, 0, 0, 1)


def test_eval_int_examples():
    assert (Poly([1, 1]) ** 2).eval_int(1) == 4
    assert qbracket(3).eval_int(1) == 3
    assert ZERO.eval_int(7) == 0
    assert Poly([1, 2, 3]).eval_int(-2) == 1 - 4 + 12


def test_derivative_at_one_examples():
    assert qpower(3).derivative_at_one() == 3
    assert Poly([0, 3, 2, 1]).derivative_at_one() == 10
    assert Poly([42]).derivative_at_one() == 0


def test_pow():
    assert Poly([1, 1]) ** 0 == Poly([1])
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(Poly([-3, -6, -3])) == "-3 - 6*q - 3*q^2"
    assert str(Poly([0, 3, 2, 1])) == "3*q + 2*q^2 + q^3"
    assert str(Poly([1, 0, -1])) == "1 - q^2"
    assert str(Poly([0, -1])) == "-q"


@settings(max_examples=200, deadline=None)
@given(polys)
def test_repr_round_trip(p):
    assert eval(repr(p)) == p


def test_repr_is_the_constructor_call():
    assert repr(Poly([1, 1])) == "Poly([1, 1])"
    assert repr(ZERO) == "Poly([])"


@settings(max_examples=100, deadline=None)
@given(polys)
def test_json_round_trip(p):
    assert Poly(int(s) for s in p.json_coeffs()) == p


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_ring_axioms_seeded():
    propcheck.check_ring_axioms()


def test_bracket_recurrence():
    propcheck.check_bracket_recurrence()


def test_telescoping():
    propcheck.check_telescoping()


def test_bracket_eval_at_one():
    propcheck.check_bracket_eval()


# -- the Kronecker codec -------------------------------------------------------


def double_loop(a, b):
    # the literal product, a route that does not go through pack and unpack
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("bits", [2, 3, 8, 64, 65])
def test_pack_unpack_round_trip(bits):
    rng = random.Random(bits)
    half = 1 << (bits - 1)
    assert pack([], bits) == 0 and unpack(0, bits) == []
    for _ in range(300):
        # canonical digit strings, with both ends of [-2^(bits-1), 2^(bits-1))
        c = [rng.choice([-half, half - 1, 0, rng.randrange(-half, half)])
             for _ in range(rng.randint(0, 6))]
        while c and not c[-1]:
            c.pop()
        assert unpack(pack(c, bits), bits) == c, c
    # every integer has one canonical digit string; 2^(bits-1) is no digit
    assert unpack(half, bits) == [-half, 1]
    for v in [half, -half, half - 1, -half - 1] + [rng.randint(-2 ** 300, 2 ** 300)
                                                   for _ in range(100)]:
        d = unpack(v, bits)
        assert pack(d, bits) == v
        assert all(-half <= x < half for x in d) and d[-1], (v, d)


def test_pack_unpack_across_the_split():
    # lengths on both sides of the leaf and of its doublings, with the top and
    # bottom digits of every width
    rng = random.Random(21)
    leaf = _LEAF_DIGITS
    for bits in range(2, 81):
        half = 1 << (bits - 1)
        assert pack([], bits) == 0 and unpack(0, bits) == []
        for n in (leaf - 1, leaf, leaf + 1, 2 * leaf, 2 * leaf + 1, 4 * leaf + 3,
                  rng.randint(1, 10 * leaf)):
            c = [rng.choice([-half, half - 1, 0, rng.randrange(-half, half)])
                 for _ in range(n - 1)] + [rng.choice([-half, half - 1])]
            v = pack(c, bits)
            assert v == Poly(c).eval_int(1 << bits), (bits, n)
            assert unpack(v, bits) == c, (bits, n)


def test_unpack_needs_two_bits_for_positive_values():
    # width-1 digits are -1 and 0: they spell every v <= 0 and no v > 0
    for v in (5, 1, 1 << 200):
        with pytest.raises(ValueError):
            unpack(v, 1)
    assert unpack(-5, 1) == [-1, 0, -1]
    v = -(1 << 300) + 12345
    assert pack(unpack(v, 1), 1) == v


def test_mul_matches_the_double_loop():
    rng = random.Random(20)

    def coeffs():
        bound = rng.choice([1, 60, 2 ** 64, 2 ** 200])
        return [rng.randint(-bound, bound) for _ in range(rng.randint(0, 12))]

    for _ in range(500):
        a, b = Poly(coeffs()), Poly(coeffs())
        assert (a * b).coeffs == double_loop(a.coeffs, b.coeffs), (a, b)
    # every coefficient at the width's bound min(len) * max|a| * max|b|
    for k, m in ((1, 1), (5, 7), (33, 2 ** 64 + 1)):
        for a in ([m] * k, [-m] * k, [m, -m] * k):
            for b in (a, [m] * (k + 3), [-m]):
                assert (Poly(a) * Poly(b)).coeffs == double_loop(a, b), (a, b)
    assert Poly([3, -1]) * ZERO == ZERO * Poly([3, -1]) == ZERO * ZERO == ZERO
    # operands long enough that pack and unpack split
    for la, lb in ((3 * _LEAF_DIGITS, 2 * _LEAF_DIGITS + 1), (5 * _LEAF_DIGITS, 2)):
        a = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(la)]
        b = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(lb)]
        assert (Poly(a) * Poly(b)).coeffs == double_loop(a, b), (la, lb)
        assert Poly(a) * ZERO == ZERO * Poly(a) == ZERO
