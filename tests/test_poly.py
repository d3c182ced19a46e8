from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confweyl.poly import (
    D,
    L,
    M,
    Poly,
    V,
    parse_poly,
    render_poly,
    split_constant,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
exps = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exps, rationals, max_size=5).map(Poly)
d_polys = st.dictionaries(st.integers(0, 5).map(lambda e: (e, 0, 0, 0)),
                          rationals, max_size=5).map(Poly)


def test_derivative_examples():
    assert parse_poly("d^2 + 3*d").derivative("d", 1) == parse_poly("2*d + 3")
    assert parse_poly("d^3").derivative("d", 2) == parse_poly("6*d")
    assert parse_poly("5").derivative("d", 1) == Poly.zero()


def test_shift_examples():
    assert parse_poly("d^2").shift("d", L) == parse_poly("d^2 + 2*d*l + l^2")
    alpha = Fraction(1, 3)
    assert (Poly.const(alpha) + D).shift("d", L) == Poly.const(alpha) + D + L
    assert Poly.one().shift("d", L) == Poly.one()


def test_shift_rejects_self_offset():
    with pytest.raises(ValueError):
        D.shift("d", D + L)


def test_split_constant_examples():
    assert split_constant(parse_poly("d + 3")) == (3, Poly.one())
    assert split_constant(parse_poly("d^2 - 2*d")) == (0, parse_poly("d - 2"))
    assert split_constant(parse_poly("7")) == (7, Poly.zero())


def test_split_constant_rejects_other_vars():
    with pytest.raises(ValueError):
        split_constant(parse_poly("v + 1"))


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == Poly.zero()


@given(d_polys)
def test_split_constant_roundtrip(f):
    c, g = split_constant(f)
    assert Poly.const(c) + D * g == f


@given(d_polys, st.integers(0, 3))
def test_derivative_shift_commute(f, k):
    assert f.shift("d", L).derivative("d", k) == f.derivative("d", k).shift("d", L)


@given(polys)
@settings(max_examples=40)
def test_render_parse_roundtrip(p):
    assert parse_poly(render_poly(p)) == p


def test_unicode_and_ascii_names_agree():
    assert parse_poly("3*∂^2*v - 1/2*λ") == parse_poly("3*d^2*v - 1/2*l")
    assert parse_poly("μ*m") == M * M


def test_degree_and_coeff_split():
    p = parse_poly("d^2*l + 3*l + v")
    assert p.degree("l") == 1
    parts = p.coeffs_in("l")
    assert parts[1] == parse_poly("d^2 + 3")
    assert parts[0] == V

