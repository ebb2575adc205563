"""Highest-weight sl3 modules built from lowering words."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from envlld.algebra import sl3
from envlld.center import casimir_elements
from envlld.centerpoly import CenterPoly
from envlld.linalg import CertificateError
from envlld.reps import (d2_scalar, d3_scalar, eval_element, mat_identity,
                         mat_scale, mat_zero)
from envlld.sl3reps import (classical_dim, lemma_action, lemma_agreement,
                            lowering_independence, sl3_irrep)


def test_classical_dimension_formula():
    assert classical_dim(0, 0) == 1
    assert classical_dim(1, 0) == 3
    assert classical_dim(0, 1) == 3
    assert classical_dim(1, 1) == 8
    assert classical_dim(2, 2) == 27
    assert classical_dim(3, 3) == 64


def test_dimensions_match_the_classical_count():
    for m1 in range(4):
        for m2 in range(4):
            R = sl3_irrep((m1, m2))
            assert R.dim == classical_dim(m1, m2), (m1, m2)


@pytest.mark.parametrize("w,model", [
    pytest.param((1, 1), False, id="w0"),
    pytest.param((2, 1), False, id="w1"),
    pytest.param((1, 1), True, id="w0-model"),
    pytest.param((2, 1), True, id="w1-model"),
])
def test_defining_relations_hold(w, model):
    R = sl3_irrep(w)
    if model:
        R = R._model.rep
    zero = mat_zero(R.dim)
    for a in R.algebra.gens:
        for b in R.algebra.gens:
            assert R.bracket_defect(a, b) == zero


@pytest.mark.parametrize("w", [(1, 1), (2, 1), (0, 2)])
def test_casimir_operators_act_by_their_scalars(w):
    cas = casimir_elements("sl3")
    R = sl3_irrep(w)
    ident = mat_identity(R.dim)
    assert eval_element(cas["Z2"], R) == mat_scale(ident, d2_scalar(*w))
    assert eval_element(cas["Z3"], R) == mat_scale(ident, d3_scalar(*w))


def test_closed_form_action_spot_values():
    assert lemma_action("Y2", (1, 0, 0), (2, 2)) == {
        (1, 1, 0): 1, (0, 0, 1): 1}
    assert lemma_action("Y2", (0, 2, 0), (2, 2)) == {(0, 3, 0): 1}
    assert lemma_action("X1", (1, 0, 0), (2, 2)) == {(0, 0, 0): 2}
    assert lemma_action("X2", (0, 0, 1), (2, 2)) == {(1, 0, 0): 1}
    assert lemma_action("X3", (1, 1, 0), (3, 3)) == {(0, 0, 0): -3}
    # H1 weight at (1, 1, 1) under (2, 2) is 2 - 2 + 1 - 1 = 0
    assert lemma_action("H1", (1, 1, 1), (2, 2)) == {}
    with pytest.raises(ValueError):
        lemma_action("Q1", (0, 0, 0), (1, 1))


def test_closed_form_matches_the_model():
    # the formulas are only guaranteed while both weights exceed the total
    # lowering degree, so stop at degree 1 for (2, 2)
    R = sl3_irrep((2, 2))
    tris = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for tri in tris:
        for g in R.algebra.gens:
            assert lemma_agreement(R, tri, g), (tri, g)


def test_lowering_vectors_stay_independent():
    ok, evidence = lowering_independence((2, 2), 2)
    assert ok
    assert evidence == {"count": 10, "rank": 10}


def test_weight_bookkeeping():
    model = sl3_irrep((1, 1))._model
    assert model.weight_of(model.lowering_vector((0, 0, 0))) == (1, 1)
    assert model.weight_of(model.lowering_vector((1, 0, 0))) == (-1, 2)
    assert model.weight_of(model.lowering_vector((0, 0, 1))) == (0, 0)


@pytest.mark.parametrize("w", [(1, 1), (2, 1)])
def test_model_columns_match_the_irreducible(w):
    # seeded elements with center coefficients: the model-space image of each
    # admitted basis vector has the coordinates of that column of R(e)
    B = sl3()
    R = sl3_irrep(w)
    model = R._model
    rng = random.Random(11)
    for _ in range(6):
        e = B.pbw_zero()
        for _ in range(rng.randint(1, 4)):
            exps = [0] * 8
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(8)] += 1
            z = (rng.randint(0, 1), rng.randint(0, 1))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            e = e + B.pbw_mono(exps, CenterPoly(2, {z: c}))
        mat = eval_element(e, R)
        cols = model.eval_columns(e, R.center_point)
        assert len(cols) == R.dim
        for b, col in enumerate(cols):
            # coords_of takes one weight at a time
            by_weight = {}
            for i, x in col.items():
                by_weight.setdefault(model.weight_of({i: x}), {})[i] = x
            coords = model.coords_of({})
            for part in by_weight.values():
                coords = [s + t for s, t in zip(coords, model.coords_of(part))]
            assert coords == [row[b] for row in mat]


def test_size_cap_and_caching():
    with pytest.raises(ValueError):
        sl3_irrep((9, 9))
    assert sl3_irrep((1, 1)) is sl3_irrep((1, 1))


def test_coordinates_in_the_admitted_basis():
    model = sl3_irrep((2, 1))._model
    D = len(model.admitted)
    for b, v in enumerate(model.basis):
        assert model.coords_of(v) == [int(t == b) for t in range(D)]
    assert model.coords_of({}) == [0] * D
    # Sym^2 (x) Sym^1 is 18-dimensional and the module 15: some model unit
    # vector has a weight of the module but lies outside it
    outside = 0
    for r in range(model.N):
        u = {r: 1}
        try:
            model.coords_of(u)
        except CertificateError:
            outside += 1
    assert outside > 0


_WRONG_COORDINATE = """
import sys
from envlld import sl3reps
from envlld.cli import main
model = sl3reps.Sl3Model(1, 1)
model.close()
v = model.basis[0]
# the echelon still holds v, so v gets coordinate 1 where 1/2 is right
model.basis[0] = {i: 2 * x for i, x in v.items()}
try:
    model.coords_of(v)
except sl3reps.CertificateError:
    pass
else:
    sys.exit("coordinate check skipped")
close = sl3reps.Sl3Model.close
def doubled_close(self):
    D = close(self)
    self.basis[0] = {i: 2 * x for i, x in self.basis[0].items()}
    return D
sl3reps.Sl3Model.close = doubled_close
sys.exit(main(["rep", "--algebra", "sl3", "--weights", "1", "1"]))
"""


def test_coordinate_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_COORDINATE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert ("internal error: coordinate solve failed verification"
            in res.stderr)
