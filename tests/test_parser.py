"""Surface syntax round trips and canonical printing."""

import random
from fractions import Fraction

import pytest

from envlld.algebra import pbw_normal_form, sl2, sl3
from envlld.center import decompose
from envlld.centerpoly import CenterPoly
from envlld.parser import (ParseError, format_decomposition, format_element,
                           format_expr, format_poly, parse_expr)

CVAR = CenterPoly.variable(1)


def _nf(text, A):
    return pbw_normal_form(parse_expr(text, A))


def test_parse_simple_words():
    A = sl2()
    want = A.pbw_mono((1, 1, 0)) - A.pbw_gen("H")
    assert _nf("Y*X", A) == want
    assert _nf("YX", A) == want
    assert _nf("Y X", A) == want
    assert _nf("X*Y - H", A) == want


def test_parse_scalars_and_signs():
    A = sl2()
    assert _nf("3/2*H", A) == A.pbw_gen("H").scale(Fraction(3, 2))
    assert _nf("(1/2)H^2", A) == A.pbw_mono((0, 0, 2), Fraction(1, 2))
    assert _nf("-X", A) == A.pbw_gen("X").scale(-1)
    assert _nf("2 - H", A) == A.pbw_const(2) - A.pbw_gen("H")
    assert _nf("I", A) == A.pbw_const(1)
    assert _nf("(X + Y)^2", A) == _nf("X^2 + XY + YX + Y^2", A)


def test_parse_center_symbols():
    A = sl2()
    x2 = A.pbw_mono((2, 0, 0))
    h = A.pbw_gen("H")
    assert _nf("CX^2 + 3/2H", A) == x2.scale(CVAR) + h.scale(Fraction(3, 2))
    # center letters commute with everything, position does not matter
    assert _nf("X^2C", A) == _nf("CX^2", A)
    B = sl3()
    z2 = CenterPoly.variable(2, 0)
    assert _nf("Z2 - 24", B) == B.pbw_const(1).scale(z2 - CenterPoly.const(2, 24))


@pytest.mark.parametrize("text,fragment,pos", [
    ("Q", "unknown symbol 'Q' for sl2", 0),
    ("X +", "unexpected end of input", 3),
    ("X^Y", "exponent must be a natural number", 2),
    ("(X", "expected ')'", 2),
    ("X)", "trailing input ')'", 1),
    ("1/0", "zero denominator", 2),
    ("X $", "unexpected character '$'", 2),
])
def test_parse_errors(text, fragment, pos):
    with pytest.raises(ParseError) as exc:
        parse_expr(text, sl2())
    assert fragment in str(exc.value)
    assert f"(at position {pos})" in str(exc.value)
    assert exc.value.pos == pos


def test_sl3_symbols_only_in_sl3():
    with pytest.raises(ParseError):
        parse_expr("Y1", sl2())
    assert _nf("Y1", sl3()) == sl3().pbw_gen("Y1")


def _random_center_poly(rng, arity):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        if arity == 1:
            e = (rng.randrange(3),)
        else:
            a = rng.randrange(3)
            e = (a, rng.randrange(3 - a))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        terms[e] = terms.get(e, 0) + c
    return CenterPoly(arity, {e: c for e, c in terms.items() if c})


def _random_pbw(rng, A, nterms, maxdeg):
    p = A.pbw_zero()
    for _ in range(nterms):
        exps = [0] * A.ngens
        for _ in range(rng.randrange(maxdeg + 1)):
            exps[rng.randrange(A.ngens)] += 1
        p = p + A.pbw_mono(tuple(exps)).scale(
            _random_center_poly(rng, A.center_arity))
    return p


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_print_parse_round_trip(name):
    A = sl2() if name == "sl2" else sl3()
    rng = random.Random(101 if name == "sl2" else 202)
    for _ in range(100):
        e = _random_pbw(rng, A, rng.randrange(1, 4), 3)
        text = format_element(e)
        assert _nf(text, A) == e, text


def test_format_poly():
    assert format_poly(CVAR * CVAR - CenterPoly.const(1, Fraction(9, 4))) == \
        "C^2 - 9/4"
    assert format_poly(CenterPoly(1, {(2,): 4, (0,): -9})) == "4*C^2 - 9"
    assert format_poly(CenterPoly.zero(1)) == "0"
    assert format_poly(-CVAR) == "-C"
    assert format_poly(CenterPoly.variable(2, 1)) == "Z3"
    assert format_poly(CVAR, names=("t",)) == "t"


def test_format_element_frozen():
    A = sl2()
    assert format_element(_nf("YX", A)) == "X*Y - H"
    assert format_element(A.pbw_zero()) == "0"
    assert format_element(A.pbw_const(Fraction(3, 2))) == "3/2"
    assert format_element(A.pbw_gen("X").scale(Fraction(3, 2))) == "(3/2)*X"
    assert format_element(A.pbw_gen("X").scale(
        CVAR - CenterPoly.const(1, Fraction(3, 2)))) == "(C - 3/2)*X"
    assert format_element(A.pbw_const(1).scale(CVAR)) == "C"
    assert format_element(A.pbw_mono((0, 2, 1), -2)) == "-2*Y^2*H"


def test_format_decomposition_frozen():
    A = sl2()
    assert format_decomposition(decompose(A.pbw_mono((1, 1, 0)))) == \
        "(1/2)*C - (1/4)*H^2 + (1/2)*H"
    sum_form = (A.pbw_mono((1, 1, 0), 2)
                + A.pbw_mono((0, 0, 2), Fraction(1, 2)) - A.pbw_mono((0, 0, 1)))
    assert format_decomposition(decompose(sum_form)) == "C"


def test_format_expr_dispatch():
    A = sl2()
    e = A.pbw_mono((1, 1, 0))
    assert format_expr(e) == format_element(e)
    assert format_expr(decompose(e)) == format_decomposition(decompose(e))
    with pytest.raises(TypeError):
        format_expr(parse_expr("X", A))
    with pytest.raises(TypeError):
        format_expr(42)
