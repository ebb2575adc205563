"""Exact polynomial layer: arithmetic, ordering, gcd, normalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlld.centerpoly import (CenterPoly, content_normalize, divexact,
                               gcd_many, grlex_key, poly_eval, poly_gcd,
                               zprimitive_scale)


def C1(terms):
    return CenterPoly(1, {k: Fraction(v) for k, v in terms.items()})


def C2(terms):
    return CenterPoly(2, {k: Fraction(v) for k, v in terms.items()})


VAR = CenterPoly.variable(1)
U = CenterPoly.variable(2, 0)
V = CenterPoly.variable(2, 1)


def rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=5)


def polys(arity=1, max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(arity)])
    return st.dictionaries(exps, rationals(), max_size=4).map(
        lambda d: CenterPoly(arity, d))


# --- arithmetic ---

def test_zero_and_const():
    z = CenterPoly.zero(1)
    assert z.is_zero() and z.degree() == -1
    c = CenterPoly.const(2, Fraction(5, 3))
    assert c.is_const() and c.const_value() == Fraction(5, 3)
    assert not VAR.is_const()
    with pytest.raises(AssertionError):
        VAR.const_value()


def test_small_products():
    p = (VAR + CenterPoly.const(1, 1)) * (VAR - CenterPoly.const(1, 1))
    assert p == C1({(2,): 1, (0,): -1})
    assert VAR ** 3 == C1({(3,): 1})
    assert (U * V) ** 2 == C2({(2, 2): 1})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == CenterPoly.zero(1)


@settings(max_examples=60, deadline=None)
@given(polys(arity=2, max_deg=2), polys(arity=2, max_deg=2))
def test_eval_is_a_homomorphism(a, b):
    pt = (Fraction(3, 2), Fraction(-2))
    assert poly_eval(a * b, pt) == poly_eval(a, pt) * poly_eval(b, pt)
    assert poly_eval(a + b, pt) == poly_eval(a, pt) + poly_eval(b, pt)


# --- ordering ---

def test_graded_order():
    assert grlex_key((2,)) > grlex_key((1,))
    assert grlex_key((1, 1)) > grlex_key((0, 1))
    assert grlex_key((0, 2)) < grlex_key((1, 1))
    p = C1({(2,): 1, (0,): -1, (1,): 2})
    assert [e for e, _ in p.sorted_terms()] == [(2,), (1,), (0,)]


def test_sort_key_separates():
    assert C1({(1,): 1}).sort_key() != C1({(1,): 2}).sort_key()
    assert C1({(1,): 1}).sort_key() != C1({(2,): 1}).sort_key()


# --- exact division and gcd ---

def test_divexact_round_trip():
    a = C1({(2,): 1, (0,): Fraction(-9, 4)})
    b = C1({(1,): 2, (0,): 3})
    assert divexact(a * b, b) == a
    with pytest.raises(ValueError):
        divexact(C1({(1,): 1, (0,): 1}), C1({(1,): 1}))


@settings(max_examples=40, deadline=None)
@given(polys(max_deg=2), polys(max_deg=2))
def test_divexact_inverts_mul(a, b):
    if b.is_zero():
        return
    assert divexact(a * b, b) == a


def test_gcd_canonical_form():
    # gcd is integer primitive with a positive leading coefficient
    two_c = C1({(1,): 2})
    assert poly_gcd(two_c, C1({(2,): 2})) == C1({(1,): 1})
    g = poly_gcd(C1({(1,): 1, (0,): Fraction(-3, 2)}),
                 C1({(2,): 1, (1,): -3, (0,): Fraction(9, 4)}))
    assert g == C1({(1,): 2, (0,): -3})
    with pytest.raises(ValueError):
        poly_gcd(CenterPoly.zero(1), CenterPoly.zero(1))
    assert poly_gcd(CenterPoly.zero(1), two_c) == C1({(1,): 1})


def K(c):
    return CenterPoly.const(2, c)


@pytest.mark.parametrize("a, b, g", [
    pytest.param((U + V) * (U - K(1)), (U + V) * V, U + V,
                 id="common-factor"),
    # the Z2-leading coefficient of a vanishes at Z3 = 2 and Z3 = 3
    pytest.param((V - K(2)) * (V - K(3)) * U + K(1), U + V, K(1),
                 id="leading-coefficient-vanishes"),
    # at Z3 = 2 both share Z2 - 2, so the remainder sequence must decide
    pytest.param(U - V, U - K(2), K(1), id="unlucky-point"),
    pytest.param((V + K(1)) * U, (V + K(1)) * (U + K(1)), V + K(1),
                 id="content-only"),
    pytest.param((U + V) * (V + K(1)) * U, (U + V) * (V + K(1)) * (V - K(1)),
                 (U + V) * (V + K(1)), id="content-and-remainders"),
])
def test_gcd_bivariate(a, b, g):
    assert poly_gcd(a, b) == g
    assert gcd_many([a, b, g * g]) == g


@settings(max_examples=30, deadline=None)
@given(polys(max_deg=2), polys(max_deg=2), polys(max_deg=1))
def test_gcd_divides_both(a, b, m):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a * m, b * m) if not m.is_zero() else poly_gcd(a, b)
    for p in (a * m, b * m) if not m.is_zero() else (a, b):
        if not p.is_zero():
            divexact(p, g)  # must not raise


def test_zprimitive_scale():
    assert zprimitive_scale(C1({(1,): Fraction(1, 2),
                                (0,): Fraction(-3, 4)})) == 4
    assert zprimitive_scale(C1({(1,): 6, (0,): 4})) == Fraction(1, 2)


# --- content normalization ---

def test_content_normalize_divides_out_the_gcd():
    c = VAR
    v = content_normalize((c * 2, c * c * 2))
    assert v == (CenterPoly.const(1, 1), c)


def test_content_normalize_shifted_factor():
    s = VAR - CenterPoly.const(1, Fraction(3, 2))
    v = content_normalize((s, s * s))
    assert v == (CenterPoly.const(1, 1), s)


def test_content_normalize_fixed_point():
    one = CenterPoly.const(1, 1)
    assert content_normalize((one, VAR)) == (one, VAR)


@settings(max_examples=40, deadline=None)
@given(st.lists(polys(max_deg=2), min_size=1, max_size=3),
       rationals().filter(lambda r: r != 0))
def test_content_normalize_idempotent_and_scale_free(vs, r):
    vs = tuple(vs)
    if all(p.is_zero() for p in vs):
        return
    w = content_normalize(vs)
    assert content_normalize(w) == w
    assert content_normalize(tuple(p * r for p in vs)) == w
