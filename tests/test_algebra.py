"""Generators, brackets, and the rewriting that produces PBW normal forms.

The bracket tables come from commutators of the defining matrices, so the
tests pin the values that everything else depends on, then check the
structural properties (antisymmetry, Jacobi, the homomorphism law for the
normal form) on top.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlld.algebra import (bracket, get_algebra, pbw_mul, pbw_normal_form,
                            sl2, sl3)
from envlld.centerpoly import CenterPoly
from envlld.parser import format_expr
from envlld.reps import eval_element, mat_mul, sl2_irrep
from envlld.sl3reps import sl3_irrep


def test_algebra_shapes():
    A = sl2()
    assert A.gens == ("X", "Y", "H") and A.center == ("C",)
    B = sl3()
    assert B.gens == ("Y1", "Y2", "Y3", "X1", "X2", "X3", "H1", "H2")
    assert B.center == ("Z2", "Z3")
    assert get_algebra("sl2") is A
    with pytest.raises(ValueError):
        get_algebra("sl4")


def test_sl2_bracket_table():
    A = sl2()
    assert bracket("X", "Y", A) == {"H": 1}
    assert bracket("H", "X", A) == {"X": 2}
    assert bracket("H", "Y", A) == {"Y": -2}
    assert bracket("X", "X", A) == {}


def test_sl3_bracket_spot_values():
    B = sl3()
    assert bracket("X3", "Y3", B) == {"H1": 1, "H2": 1}
    assert bracket("X3", "Y1", B) == {"X2": -1}
    assert bracket("Y2", "Y1", B) == {"Y3": 1}
    assert bracket("Y2", "Y3", B) == {}
    assert bracket("Y2", "X1", B) == {}
    assert bracket("H1", "X1", B) == {"X1": 2}
    assert bracket("H2", "X1", B) == {"X1": -1}


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_antisymmetry(name):
    A = get_algebra(name)
    for a in A.gens:
        for b in A.gens:
            ab = bracket(a, b, A)
            ba = bracket(b, a, A)
            assert ab == {k: -c for k, c in ba.items()}


def _ad(A, a, coeffs):
    """[a, -] applied to a generator combination given as name -> coeff."""
    out = {}
    for b, cb in coeffs.items():
        for k, c in bracket(a, b, A).items():
            out[k] = out.get(k, Fraction(0)) + cb * c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_jacobi_identity(name):
    A = get_algebra(name)
    for a in A.gens:
        for b in A.gens:
            for c in A.gens:
                total = {}
                for x, rest in ((a, bracket(b, c, A)),
                                (b, bracket(c, a, A)),
                                (c, bracket(a, b, A))):
                    for k, v in _ad(A, x, rest).items():
                        total[k] = total.get(k, Fraction(0)) + v
                assert not any(total.values()), (a, b, c)


# --- normal forms ---

def test_basic_reordering():
    A = sl2()
    nf = pbw_normal_form(A.free_word("Y", "X"))
    assert nf == A.pbw_mono((1, 1, 0)) - A.pbw_mono((0, 0, 1))


def test_squared_lowering_reordering():
    # Y Y X = X Y^2 - 2 Y H + 2 Y, by two swaps and one bracket cleanup
    A = sl2()
    nf = pbw_normal_form(A.free_word("Y", "Y", "X"))
    want = (A.pbw_mono((1, 2, 0)) - A.pbw_mono((0, 1, 1)).scale(2)
            + A.pbw_mono((0, 1, 0)).scale(2))
    assert nf == want


def test_sl3_reordering():
    B = sl3()
    assert pbw_normal_form(B.free_word("X1", "Y1")) == \
        B.pbw_mono((1, 0, 0, 1, 0, 0, 0, 0)) + B.pbw_gen("H1")
    # Y3 and Y1 commute, so the swap is free
    assert pbw_normal_form(B.free_word("Y3", "Y1")) == \
        B.pbw_mono((1, 0, 1, 0, 0, 0, 0, 0))


def test_center_letters_commute():
    A = sl2()
    cx = pbw_normal_form(A.free_word("C", "X"))
    xc = pbw_normal_form(A.free_word("X", "C"))
    assert cx == xc
    assert cx == A.pbw_gen("X").scale(CenterPoly.variable(1))


def test_long_word_stays_within_budget():
    A = sl2()
    word = ("Y",) * 6 + ("X",) * 6
    nf = pbw_normal_form(A.free_word(*word))
    assert nf.coeff((6, 6, 0)) == CenterPoly.const(1, 1)


def free_elements(A, letters, max_len=3, max_terms=3):
    words = st.lists(st.sampled_from(letters), max_size=max_len).map(tuple)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.dictionaries(words, coeffs, max_size=max_terms).map(
        lambda d: sum((A.free_word(*w) * c for w, c in d.items()),
                      A.free_zero()))


@settings(max_examples=40, deadline=None)
@given(free_elements(sl2(), ("X", "Y", "H", "C")),
       free_elements(sl2(), ("X", "Y", "H", "C")))
def test_normal_form_is_multiplicative_sl2(e1, e2):
    lhs = pbw_normal_form(e1 * e2)
    rhs = pbw_mul(pbw_normal_form(e1), pbw_normal_form(e2))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(free_elements(sl3(), ("Y1", "X1", "X3", "H2", "Z2"), max_len=2),
       free_elements(sl3(), ("Y2", "Y3", "X2", "H1", "Z3"), max_len=2))
def test_normal_form_is_multiplicative_sl3(e1, e2):
    lhs = pbw_normal_form(e1 * e2)
    rhs = pbw_mul(pbw_normal_form(e1), pbw_normal_form(e2))
    assert lhs == rhs


@pytest.mark.parametrize("name,rep,max_len", [
    pytest.param("sl2", 4, 3, id="sl2-rho_4-len3"),
    pytest.param("sl2", 4, 8, id="sl2-rho_4-len8"),
    pytest.param("sl3", (1, 1), 8, id="sl3-pi_1_1-len8"),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_preserves_the_action(name, rep, max_len, data):
    # rewriting must not change the operator the word products define
    A = get_algebra(name)
    R = sl2_irrep(rep) if name == "sl2" else sl3_irrep(rep)
    e = data.draw(free_elements(A, A.gens, max_len=max_len))
    n = R.dim
    direct = [[Fraction(0)] * n for _ in range(n)]
    for word, c in e.terms.items():
        m = [[Fraction(1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        for idx in word:
            m = mat_mul(m, R.matrix(A.gens[idx]))
        for i in range(n):
            for j in range(n):
                direct[i][j] += c * m[i][j]
    assert eval_element(pbw_normal_form(e), R) == \
        tuple(tuple(row) for row in direct)


def _h_power_times_x(n):
    # H X = X (H + 2), so H^n X = X (H + 2)^n
    A = sl2()
    return sum((A.pbw_mono((1, 0, j)).scale(comb(n, j) * 2 ** (n - j))
                for j in range(n + 1)), A.pbw_zero())


def test_closed_form_of_a_high_power():
    A = sl2()
    assert pbw_normal_form(A.free_word(*("H",) * 300, "X")) == \
        _h_power_times_x(300)


_SHALLOW = """
import sys
sys.setrecursionlimit(200)
from envlld.algebra import pbw_normal_form, sl2
from envlld.parser import format_expr
print(format_expr(pbw_normal_form(sl2().free_word(*("H",) * 300, "X"))))
"""


def test_recursion_depth_does_not_grow_with_the_degree():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", _SHALLOW], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == format_expr(_h_power_times_x(300)) + "\n"


def test_deep_word_matches_the_module_action():
    # Y^20 X^20 against the product of the generator matrices at rho_21
    A = sl2()
    R = sl2_irrep(21)
    start = time.perf_counter()
    nf = pbw_normal_form(A.free_word(*("Y",) * 20, *("X",) * 20))
    m = R.matrix("Y")
    for g in ("Y",) * 19 + ("X",) * 20:
        m = mat_mul(m, R.matrix(g))
    assert eval_element(nf, R) == m
    assert time.perf_counter() - start < 5.0


def test_pbw_element_algebra():
    A = sl2()
    x, y = A.pbw_gen("X"), A.pbw_gen("Y")
    assert (x + y) - y == x
    assert x.scale(Fraction(0)).is_zero()
    e = A.pbw_mono((2, 0, 1)).scale(Fraction(3, 2)) + y
    assert e.degree() == 3
    assert e.monomials() == [(2, 0, 1), (0, 1, 0)]
    assert e.coeff((0, 1, 0)) == CenterPoly.const(1, 1)
    assert e.coeff((5, 0, 0)).is_zero()


def test_pbw_mul_collects_center_coefficients():
    A = sl2()
    c = CenterPoly.variable(1)
    p = A.pbw_gen("Y").scale(c)
    q = A.pbw_gen("X").scale(c)
    prod = pbw_mul(p, q)
    assert prod.coeff((1, 1, 0)) == c * c
    assert prod.coeff((0, 0, 1)) == c * c * Fraction(-1)
