"""Fraction-free elimination, kernels, and the rational echelon."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from envlld import linalg
from envlld.centerpoly import CenterPoly, poly_eval
from envlld.linalg import (PROBE_POINT, PolyMatrix, RatEchelon, ff_rank_kernel,
                           solve_fraction_field)

C = CenterPoly.variable(1)
ONE = CenterPoly.const(1, 1)
ZERO = CenterPoly.zero(1)


def const(v):
    return CenterPoly.const(1, Fraction(v))


def mat(rows):
    return PolyMatrix(1, len(rows), len(rows[0]), rows)


def test_rank_one_with_kernel():
    res = ff_rank_kernel(mat([[ONE, C], [ZERO, ZERO]]))
    assert res.rank == 1
    assert res.kernel_basis == ((C, const(-1)),)


def test_full_rank_empty_kernel():
    res = ff_rank_kernel(mat([[C, const(Fraction(3, 2))],
                              [const(Fraction(3, 2)), C]]))
    assert res.rank == 2
    assert res.kernel_basis == ()


def test_zero_matrix_kernel_is_standard():
    res = ff_rank_kernel(mat([[ZERO, ZERO], [ZERO, ZERO]]))
    assert res.rank == 0
    assert res.kernel_basis == ((ONE, ZERO), (ZERO, ONE))


def polys(arity, max_deg=2):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(arity)])
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.dictionaries(exps, coeffs, max_size=3).map(
        lambda d: CenterPoly(arity, d))


def poly_matrices(arity):
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(polys(arity), min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: PolyMatrix(arity, r, c, rows))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(poly_matrices(1), poly_matrices(2)))
def test_kernel_vectors_annihilate(M):
    res = ff_rank_kernel(M)
    assert res.rank + len(res.kernel_basis) == M.cols
    for v in res.kernel_basis:
        for i in range(M.rows):
            acc = CenterPoly.zero(M.arity)
            for j in range(M.cols):
                acc = acc + M.entries[i][j] * v[j]
            assert acc.is_zero()


# --- the probe point ---

Z2, Z3 = CenterPoly.variable(2, 0), CenterPoly.variable(2, 1)


def test_probe_point_zeros_below_are_unlucky():
    assert poly_eval(C * 3 - const(7), PROBE_POINT[1]) == 0
    assert poly_eval(Z3 * 2 + CenterPoly.const(2, 5), PROBE_POINT[2]) == 0


def _counting(monkeypatch, name):
    calls = []
    real = getattr(linalg, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


@pytest.mark.parametrize("entries,arity", [
    ([[C * 3 - const(7), ZERO], [ZERO, ONE]], 1),
    ([[Z3 * 2 + CenterPoly.const(2, 5), CenterPoly.zero(2)],
      [CenterPoly.zero(2), CenterPoly.const(2, 1)]], 2),
], ids=["C", "Z2Z3"])
def test_unlucky_point_falls_back_to_all_rows(monkeypatch, entries, arity):
    # rank 1 at the point: the minor's kernel (1, 0) misses the first row,
    # so Bareiss runs again on all of M
    calls = _counting(monkeypatch, "_bareiss")
    res = ff_rank_kernel(PolyMatrix(arity, 2, 2, entries))
    assert (res.rank, res.kernel_basis) == (2, ())
    assert [len(c[1]) for c in calls] == [1, 2]


def test_full_rank_at_the_point_runs_no_elimination(monkeypatch):
    calls = _counting(monkeypatch, "divexact")
    M = mat([[C, ONE], [ONE, C], [C * C, ZERO]])
    assert ff_rank_kernel(M) == linalg.EliminationResult(2, ())
    assert calls == []


def test_corank_one_runs_on_a_minor(monkeypatch):
    calls = _counting(monkeypatch, "_bareiss")
    # the third column is C times the first, minus the second
    M = mat([[ONE, C, ZERO], [C, ONE, C * C - ONE], [C * C, ZERO, C * C * C],
             [ZERO, ONE, -ONE]])
    res = ff_rank_kernel(M)
    assert (res.rank, res.kernel_basis) == (2, ((C, -ONE, -ONE),))
    assert [len(c[1]) for c in calls] == [2]


def test_corank_two_kernel_is_frozen():
    # a minor could pick other pivot columns, so a kernel of dimension two
    # comes from all rows
    M = mat([[C * -6, C * C * 2, C * 4], [const(3), -C, const(-2)]])
    res = ff_rank_kernel(M)
    assert res.rank == 1
    assert res.kernel_basis == ((ONE, ZERO, const(Fraction(3, 2))),
                                (ZERO, ONE, C * Fraction(-1, 2)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(poly_matrices(1), poly_matrices(2)))
def test_probe_agrees_with_bareiss_on_all_rows(M):
    assert ff_rank_kernel(M) == linalg._bareiss(M.arity, M.entries, M.cols)


# 3x4 matrices over Q[Z2, Z3] that test_kernel_vectors_annihilate draws under
# hypothesis seeds 8, 15, 16, 19 and 45; their kernel vectors need bivariate
# gcds of entries of degree up to 10
_HANG_MATRICES = [[[{(0, 0): '-2/3', (2, 2): '5/3'},
                    {(0, 1): '-2', (1, 0): '-1', (2, 2): '-14/3'},
                    {(1, 1): '11/2', (2, 0): '-3/4', (2, 2): '16/3'},
                    {(1, 1): '5', (2, 2): '2/3'}],
                   [{(0, 0): '19/4', (0, 2): '5/3', (2, 0): '4'},
                    {(0, 2): '-5/2', (2, 1): '5', (2, 2): '2'},
                    {(0, 0): '13/4'}, {(1, 2): '1/3', (2, 2): '5'}],
                   [{}, {(0, 1): '1', (0, 2): '3', (2, 2): '2/3'},
                    {(0, 1): '-3', (1, 2): '3', (2, 1): '-3'},
                    {(0, 1): '-5', (1, 0): '17/3'}]],
                  [[{(1, 1): '6'}, {(0, 0): '23/4', (1, 0): '-17/4'},
                    {(1, 0): '6'},
                    {(0, 0): '1', (0, 2): '2', (1, 0): '-3/2'}],
                   [{}, {(0, 1): '-5', (2, 1): '-4'},
                    {(0, 0): '5', (0, 2): '-6'}, {(2, 0): '21/4'}],
                   [{(0, 2): '3/2', (1, 0): '11/2', (1, 1): '-8/3'}, {},
                    {(0, 1): '-4', (1, 0): '-1/2', (1, 2): '3/2'},
                    {(1, 2): '3'}]],
                  [[{}, {(0, 0): '-3', (0, 1): '-13/3', (1, 0): '-7/4'},
                    {(0, 0): '-6', (2, 1): '3'},
                    {(0, 1): '-3', (2, 1): '-6'}],
                   [{(0, 0): '3/2', (2, 0): '-21/4'},
                    {(1, 0): '13/3', (1, 1): '5/4'}, {(0, 2): '5/2'},
                    {(0, 2): '-11/2', (1, 1): '-5', (1, 2): '1'}],
                   [{(0, 0): '-8/3', (1, 2): '-7/2'}, {}, {},
                    {(0, 1): '-3', (2, 1): '-6'}]],
                  [[{}, {(1, 0): '2', (1, 1): '10/3', (2, 0): '7/2'},
                    {(1, 0): '4'},
                    {(0, 1): '-1', (0, 2): '-3/4', (2, 1): '5'}],
                   [{(2, 0): '-2', (2, 1): '3', (2, 2): '-4/3'},
                    {(2, 1): '-3/2'},
                    {(0, 0): '-1/2', (0, 1): '2', (2, 2): '-21/4'}, {}],
                   [{(1, 0): '3/2', (1, 2): '-4', (2, 2): '-9/2'}, {},
                    {(2, 1): '2', (2, 2): '10/3'},
                    {(1, 0): '-19/4', (2, 0): '-16/3', (2, 2): '-2/3'}]],
                  [[{(1, 0): '-3', (1, 1): '-3', (1, 2): '13/3'}, {},
                    {(0, 2): '4', (1, 0): '6', (1, 1): '-1/4'},
                    {(0, 0): '-1/3'}],
                   [{(0, 0): '-11/3', (0, 1): '-3'},
                    {(1, 0): '2', (1, 2): '-6', (2, 2): '-2'},
                    {(0, 0): '-2', (0, 2): '1', (1, 2): '-4'},
                    {(0, 0): '-3', (2, 0): '11/2', (2, 2): '-2'}],
                   [{(0, 2): '6'},
                    {(0, 1): '-11/2', (1, 1): '-11/2', (2, 2): '-2'},
                    {(0, 2): '-7/2', (2, 0): '-21/4', (2, 2): '2'},
                    {(0, 1): '6', (1, 0): '7/3', (2, 1): '-1'}]]]

_CHECK_KERNELS = """
import sys
from fractions import Fraction
from envlld.centerpoly import CenterPoly
from envlld.linalg import PolyMatrix, ff_rank_kernel
for entries in %r:
    M = PolyMatrix(2, 3, 4, [[CenterPoly(2, {e: Fraction(c) for e, c in d.items()})
                              for d in row] for row in entries])
    res = ff_rank_kernel(M)
    if res.rank + len(res.kernel_basis) != M.cols:
        sys.exit("rank and kernel dimension do not add up")
    for v in res.kernel_basis:
        for row in M.entries:
            acc = CenterPoly.zero(2)
            for a, b in zip(row, v):
                acc = acc + a * b
            if not acc.is_zero():
                sys.exit("kernel vector does not annihilate M")
"""


def test_bivariate_kernels_in_bounded_time():
    # one subprocess, under -O so that no assert is load-bearing, and with a
    # timeout, so that a gcd that does not end fails instead of hanging
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", _CHECK_KERNELS % (_HANG_MATRICES,)],
        env=env, capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr


@settings(max_examples=25, deadline=None)
@given(poly_matrices(1), st.integers(0, 10 ** 6))
def test_sampled_rank_never_exceeds_symbolic(M, seed):
    sym = ff_rank_kernel(M).rank
    rng = random.Random(seed)
    attained = 0
    for _ in range(20):
        pt = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),)
        ech = RatEchelon(M.cols)
        for i in range(M.rows):
            ech.add([poly_eval(M.entries[i][j], pt) for j in range(M.cols)])
        assert ech.rank <= sym
        attained = max(attained, ech.rank)
    assert attained == sym


# --- fraction-field solve ---

def test_solve_known_system():
    # columns (3/2, C), (C, 3/2) against target (1, 0): clears to
    # denominator 4C^2 - 9 after joint normalization
    M = mat([[const(Fraction(3, 2)), C], [C, const(Fraction(3, 2))]])
    b = (ONE, ZERO)
    z0, z = solve_fraction_field(M, b)
    assert z0 == CenterPoly(1, {(2,): Fraction(4), (0,): Fraction(-9)})
    assert z == (const(-6), C * 4)
    for i in range(2):
        acc = z0 * (-b[i])
        for j in range(2):
            acc = acc + M.entries[i][j] * z[j]
        assert acc.is_zero()


def test_solve_column_of_the_matrix():
    M = mat([[ONE, C], [C, ZERO]])
    b = (ONE, C)
    z0, z = solve_fraction_field(M, b)
    assert z0 == ONE and z == (ONE, ZERO)


def test_solve_inconsistent_is_none():
    M = mat([[ONE], [ZERO]])
    assert solve_fraction_field(M, (ZERO, ONE)) is None


# --- rational echelon ---

def test_echelon_membership():
    ech = RatEchelon(3)
    assert ech.add([Fraction(1), Fraction(0), Fraction(2)])
    assert ech.add([Fraction(0), Fraction(1), Fraction(0)])
    assert not ech.add([Fraction(2), Fraction(1), Fraction(4)])
    assert ech.rank == 2
    assert ech.contains([Fraction(3), Fraction(-1), Fraction(6)])
    assert not ech.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_echelon_kernel_is_indexed_by_the_free_columns():
    ech = RatEchelon(3)
    ech.add([3, 2, 1])
    assert ech.kernel() == [[Fraction(-2, 3), 1, 0], [Fraction(-1, 3), 0, 1]]
    ech.add([0, 1, 1])
    assert ech.kernel() == [[Fraction(1, 3), -1, 1]]
    assert RatEchelon(2).kernel() == [[1, 0], [0, 1]]


def rat_matrices():
    # zeros are common, so that dependent rows and zero columns show up
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=3))
    return st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(rat_matrices())
def test_echelon_kernel_and_coordinates(rows):
    width = len(rows[0])
    ech = RatEchelon(width)
    for r in rows:
        ech.add(r)
    kernel = ech.kernel()
    assert ech.rank + len(kernel) == width
    free = [j for j in range(width) if j not in ech.pivots]
    for v, f in zip(kernel, free):
        assert [v[j] for j in free] == [int(j == f) for j in free]
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    # coordinates through an identity tail rebuild every row
    n = len(rows)
    tailed = RatEchelon(width + n)
    basis = []
    for r in rows:
        if any(tailed.reduce(r + [0] * n)[:width]):
            tailed.add(r + [int(t == len(basis)) for t in range(n)])
            basis.append(r)
    assert len(basis) == ech.rank
    for r in rows:
        red = tailed.reduce(r + [0] * n)
        assert not any(red[:width])
        x = [-a for a in red[width:]]
        assert [sum(x[t] * b[j] for t, b in enumerate(basis))
                for j in range(width)] == r
