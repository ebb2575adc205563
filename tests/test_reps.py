"""Finite-dimensional sl2 modules: matrices, scalars, witness vectors."""

import random
import time
from fractions import Fraction

import pytest

from envlld.algebra import sl2
from envlld.center import casimir_elements
from envlld.centerpoly import CenterPoly, poly_eval
from envlld.linalg import RatEchelon
from envlld.reps import (acts_as_zero, apply_to_vector, c_scalar,
                         casimir_scalars, d2_scalar, d3_scalar, eval_element,
                         mat_add, mat_identity, mat_mul, mat_scale, mat_zero,
                         prop32_vector, sl2_irrep, sym_power_rep,
                         theorem1_witness)
from envlld.sl3reps import sl3_irrep


def _defects_vanish(R):
    zero = mat_zero(R.dim)
    names = R.algebra.gens
    return all(R.bracket_defect(a, b) == zero for a in names for b in names)


def test_center_scalars():
    assert [c_scalar(k) for k in range(1, 6)] == \
        [0, Fraction(3, 2), 4, Fraction(15, 2), 12]
    assert d2_scalar(1, 1) == 9
    assert d3_scalar(1, 1) == -9
    assert d3_scalar(1, 0) == Fraction(-16, 9)
    assert d3_scalar(0, 1) == Fraction(-56, 9)


def test_scalars_by_label():
    assert casimir_scalars("rho_4") == (Fraction(15, 2),)
    assert casimir_scalars("pi_1_1") == (9, -9)
    for bad in ("rho", "pi_1", "sigma_2", "rho_x"):
        with pytest.raises(ValueError):
            casimir_scalars(bad)


def test_defining_matrices_small():
    R = sl2_irrep(3)
    assert R.matrix("X") == ((0, 2, 0), (0, 0, 1), (0, 0, 0))
    assert R.matrix("Y") == ((0, 0, 0), (1, 0, 0), (0, 2, 0))
    assert R.matrix("H") == ((2, 0, 0), (0, 0, 0), (0, 0, -2))
    assert sl2_irrep(1).matrix("H") == ((0,),)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_matrices_satisfy_the_brackets(k):
    assert _defects_vanish(sl2_irrep(k))


@pytest.mark.parametrize("k", list(range(1, 7)))
def test_casimir_acts_by_its_scalar(k):
    C = casimir_elements("sl2")["C"]
    R = sl2_irrep(k)
    assert eval_element(C, R) == mat_scale(mat_identity(k), c_scalar(k))


def test_eval_with_center_coefficient():
    A = sl2()
    from envlld.centerpoly import CenterPoly
    p = A.pbw_gen("X").scale(CenterPoly.variable(1))
    R = sl2_irrep(2)
    assert eval_element(p, R) == mat_scale(R.matrix("X"), c_scalar(2))
    # symmetric-power blocks carry no stored center point
    with pytest.raises(ValueError):
        eval_element(p, sym_power_rep(2, 1))


def test_apply_matches_matrix_action():
    A = sl2()
    R = sl2_irrep(4)
    e = A.pbw_mono((1, 1, 0)) - A.pbw_mono((0, 0, 2)).scale(Fraction(1, 3))
    vec = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]
    M = eval_element(e, R)
    want = [sum(M[i][j] * vec[j] for j in range(4)) for i in range(4)]
    assert apply_to_vector(e, R, vec) == want


def test_symmetric_powers():
    assert sl2_irrep(2).matrix("H") == ((1, 0), (0, -1))
    C = casimir_elements("sl2")["C"]
    # degree 1 over two block copies of the defining module: the blocks are
    # untouched, so the Casimir still acts by its defining-module scalar
    S1 = sym_power_rep(2, 1)
    assert S1.dim == 4
    assert S1.matrix("H") == tuple(
        tuple(Fraction((-1) ** j) if i == j else Fraction(0) for j in range(4))
        for i in range(4))
    assert eval_element(C, S1) == mat_scale(mat_identity(4), c_scalar(2))
    # degree 2: Sym^2(V + V) = Sym^2 V + V x V + Sym^2 V splits as three
    # 3-dimensional modules plus a trivial one, so trace C = 3 * 3 * 4
    S2 = sym_power_rep(2, 2)
    assert S2.dim == 10
    assert _defects_vanish(S2)
    M = eval_element(C, S2)
    assert sum(M[i][i] for i in range(10)) == 36
    assert M != mat_scale(mat_identity(10), Fraction(36, 10))


def test_block_witness_shape():
    R, vec = theorem1_witness(2, 2)
    assert R.dim == 14 == len(vec)
    # degree 1 block: diagonal slots of a 2 by 2 grid; degree 2 block:
    # multinomial counts 1, 2, 1 on the three diagonal-supported monomials
    assert vec[:4] == [1, 0, 0, 1]
    assert vec[4:] == [1, 0, 0, 2, 0, 0, 0, 0, 0, 1]
    assert _defects_vanish(R)


def test_distinguished_vector():
    assert prop32_vector(1) == [0, 1, 0, 1]
    assert prop32_vector(2) == [0, 0, 1, 0, 0, 0, 1, 0, 1]
    assert prop32_vector(1, 2) == [0, 1, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        prop32_vector(0)


def test_monomial_matrix_is_a_product():
    R = sl2_irrep(3)
    m = R.mono_matrix((2, 1, 1))
    prod = mat_mul(mat_mul(R.matrix("X"), R.matrix("X")),
                   mat_mul(R.matrix("Y"), R.matrix("H")))
    assert m == prod


# -- sparse evaluation against dense products of generator matrices ---------

MODULES = {
    **{f"rho_{n}": (lambda n=n: sl2_irrep(n)) for n in range(1, 10)},
    "sym2_pi2": lambda: sym_power_rep(2, 2),
    "symblock_2_2": lambda: theorem1_witness(2, 2)[0],
    "pi_1_1": lambda: sl3_irrep((1, 1)),
    "pi_2_1": lambda: sl3_irrep((2, 1)),
}


def _random_element(rng, R, deg=4):
    A = R.algebra
    e = A.pbw_zero()
    for _ in range(rng.randint(1, 5)):
        exps = [0] * A.ngens
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(A.ngens)] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if R.center_point is not None and rng.random() < 0.5:
            coeff = CenterPoly.variable(A.center_arity,
                                        rng.randrange(A.center_arity)) \
                + CenterPoly.const(A.center_arity, coeff)
        e = e + A.pbw_mono(tuple(exps), coeff)
    return e


def _dense_eval(e, R):
    out = mat_zero(R.dim)
    for exps, p in e.terms.items():
        m = mat_identity(R.dim)
        for g, k in zip(R.algebra.gens, exps):
            for _ in range(k):
                m = mat_mul(m, R.matrix(g))
        c = p.const_value() if p.is_const() else poly_eval(p, R.center_point)
        out = mat_add(out, mat_scale(m, c))
    return out


@pytest.mark.parametrize("label", sorted(MODULES))
def test_sparse_eval_matches_dense_products(label):
    R = MODULES[label]()
    rng = random.Random(label)
    for _ in range(6):
        e = _random_element(rng, R)
        M = eval_element(e, R)
        assert M == _dense_eval(e, R)
        assert all(type(x) is Fraction for row in M for x in row)
        vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
               for _ in range(R.dim)]
        want = [sum(M[i][j] * vec[j] for j in range(R.dim))
                for i in range(R.dim)]
        assert apply_to_vector(e, R, vec) == want
        assert acts_as_zero(e, R) == (M == mat_zero(R.dim))


def test_acts_as_zero_without_a_matrix():
    A = sl2()
    for k in (2, 5, 40):
        R = sl2_irrep(k)
        assert acts_as_zero(A.pbw_gen("X", k), R)
        assert not acts_as_zero(A.pbw_gen("X", k - 1), R)
    # (C - c_k) vanishes on rho_k through its center coefficient only
    shifted = A.pbw_const(1).scale(
        CenterPoly.variable(1) - CenterPoly.const(1, c_scalar(7)))
    assert acts_as_zero(shifted, sl2_irrep(7))
    assert not acts_as_zero(shifted, sl2_irrep(6))


def test_witness_shape_rank_at_rho_36():
    # the 36 constrained monomials of degree <= 5 applied to the
    # distinguished vector at rho_36: the shape the witness search checks
    A = sl2()
    monos = [(rest, 0, c) for s in range(6) for c in range(s + 1)
             for rest in [s - c]]
    monos += [(0, rest, c) for rest, _, c in monos if rest]
    assert len(monos) == 36
    R = sl2_irrep(36)
    vec = prop32_vector(5)
    # the budget sits well above the sparse path (about 0.03-0.05 s) and
    # below evaluation by dense matrix products (0.54-0.84 s)
    start = time.perf_counter()
    ech = RatEchelon(36)
    for e in monos:
        ech.add(apply_to_vector(A.pbw_mono(e), R, vec))
    assert ech.rank == 36
    assert time.perf_counter() - start < 0.25
