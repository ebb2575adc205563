"""Central elements and rewriting into the constrained basis over the center."""

import random
from fractions import Fraction

import pytest

from envlld.algebra import pbw_mul, pbw_normal_form, sl2, sl3
from envlld.center import (CenterDecomposition, RewritingBudgetError,
                           casimir_elements, decompose, decompose_sl3,
                           verify_identity)
from envlld.centerpoly import CenterPoly


def _const_terms(p):
    return {e: c.const_value() for e, c in p.terms.items()}


def _mono8(**kw):
    names = ("Y1", "Y2", "Y3", "X1", "X2", "X3", "H1", "H2")
    return tuple(kw.get(n, 0) for n in names)


def test_quadratic_element_sl2():
    C = casimir_elements("sl2")["C"]
    assert _const_terms(C) == {
        (1, 1, 0): 2, (0, 0, 2): Fraction(1, 2), (0, 0, 1): -1}


def test_quadratic_element_sl3():
    Z2 = casimir_elements("sl3")["Z2"]
    t = _const_terms(Z2)
    assert len(t) == 8
    assert t[_mono8(Y1=1, X1=1)] == 3
    assert t[_mono8(Y2=1, X2=1)] == 3
    assert t[_mono8(Y3=1, X3=1)] == 3
    assert t[_mono8(H1=2)] == 1
    assert t[_mono8(H1=1, H2=1)] == 1
    assert t[_mono8(H2=2)] == 1
    assert t[_mono8(H1=1)] == 3
    assert t[_mono8(H2=1)] == 3


def test_cubic_element_sl3():
    Z3 = casimir_elements("sl3")["Z3"]
    t = _const_terms(Z3)
    assert len(t) == 18
    assert t[_mono8(Y1=1, Y2=1, X3=1)] == 3
    assert t[_mono8(Y3=1, X1=1, X2=1)] == 3
    assert t[_mono8(H2=3)] == Fraction(-2, 9)
    assert t[_mono8(H1=3)] == Fraction(2, 9)
    assert t[_mono8(Y2=1, X2=1)] == -6
    assert t[_mono8(Y2=1, X2=1, H1=1)] == -2
    assert t[_mono8(Y3=1, X3=1)] == -3
    assert t[_mono8(H1=1, H2=1)] == -1
    assert t[_mono8(H1=1)] == -2
    assert t[_mono8(H2=1)] == -4


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_casimirs_commute_with_every_generator(name):
    A = sl2() if name == "sl2" else sl3()
    for z in casimir_elements(name).values():
        for g in A.gens:
            ge = A.pbw_gen(g)
            assert (pbw_mul(z, ge) - pbw_mul(ge, z)).is_zero()


def test_decompose_the_sl2_product():
    A = sl2()
    d = decompose(A.pbw_mono((1, 1, 0)))
    assert d.terms == {
        (0, 0, 0): CenterPoly(1, {(1,): Fraction(1, 2)}),
        (0, 0, 2): CenterPoly.const(1, Fraction(-1, 4)),
        (0, 0, 1): CenterPoly.const(1, Fraction(1, 2)),
    }
    assert d.monomials() == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]


def test_decompose_recovers_the_quadratic_element():
    A = sl2()
    p = (A.pbw_mono((1, 1, 0), 2) + A.pbw_mono((0, 0, 2), Fraction(1, 2))
         - A.pbw_mono((0, 0, 1)))
    d = decompose(p)
    assert d.terms == {(0, 0, 0): CenterPoly.variable(1)}


def test_decompose_one_pair_sl3():
    A = sl3()
    d = decompose(A.pbw_mono(_mono8(Y2=1, X2=1)))
    third = Fraction(1, 3)
    assert d.terms == {
        _mono8(): CenterPoly(2, {(1, 0): third}),
        _mono8(H1=2): CenterPoly.const(2, -third),
        _mono8(H1=1, H2=1): CenterPoly.const(2, -third),
        _mono8(H2=2): CenterPoly.const(2, -third),
        _mono8(Y1=1, X1=1): CenterPoly.const(2, -1),
        _mono8(Y3=1, X3=1): CenterPoly.const(2, -1),
        _mono8(H1=1): CenterPoly.const(2, -1),
        _mono8(H2=1): CenterPoly.const(2, -1),
    }


def test_h2_cube_round_trip():
    A = sl3()
    p = A.pbw_mono(_mono8(H2=3))
    d = decompose(p)
    for e in d.terms:
        assert not (e[1] and e[4]) and e[7] <= 2
    assert d.expand() == p


def _random_element(rng, A, nterms, maxdeg):
    p = A.pbw_zero()
    for _ in range(nterms):
        exps = [0] * A.ngens
        for _ in range(rng.randrange(maxdeg + 1)):
            exps[rng.randrange(A.ngens)] += 1
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        p = p + A.pbw_mono(tuple(exps), c)
    return p


def test_decompose_round_trips_random_elements():
    rng = random.Random(7)
    A2, A3 = sl2(), sl3()
    for _ in range(12):
        p = _random_element(rng, A2, 4, 5)
        assert decompose(p).expand() == p
    for _ in range(4):
        p = _random_element(rng, A3, 3, 3)
        assert decompose(p).expand() == p


def test_decomposition_rejects_out_of_basis_monomials():
    A = sl2()
    with pytest.raises(AssertionError):
        CenterDecomposition(A, {(1, 1, 0): CenterPoly.const(1, 1)})
    with pytest.raises(AssertionError):
        CenterDecomposition(sl3(), {_mono8(H2=3): CenterPoly.const(2, 1)})


def test_step_budget_is_enforced():
    A = sl3()
    p = A.pbw_mono(_mono8(Y2=1, X2=1)) + A.pbw_mono(_mono8(Y2=1, X2=1, H1=1))
    with pytest.raises(RewritingBudgetError):
        decompose_sl3(p, max_steps=1)
    decompose_sl3(p, max_steps=2)


def test_verify_identity():
    A = sl2()
    shifted = CenterPoly(1, {(1,): Fraction(1), (0,): Fraction(-3, 2)})
    q = A.pbw_const(1)
    p = A.pbw_const(1).scale(shifted)
    assert verify_identity((shifted, CenterPoly.const(1, -1)), (q, p))
    assert not verify_identity(
        (CenterPoly.const(1, 1), CenterPoly.const(1, 1)),
        (A.pbw_gen("X"), A.pbw_gen("Y")))


def test_normal_form_of_the_defining_expressions():
    A = sl2()
    free = (2 * A.free_word("X", "Y")
            + Fraction(1, 2) * A.free_word("H", "H") - A.free_word("H"))
    assert pbw_normal_form(free) == casimir_elements("sl2")["C"]
