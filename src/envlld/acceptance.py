"""The acceptance suite: every check a build must pass, with time budgets.

Each criterion is exact, so there are no tolerances anywhere; the budgets
are generous wall-clock caps meant to catch algorithmic blowups rather than
machine noise.  The suite doubles as the `verify-paper` CLI command and as
the acceptance test module, which share the runner below.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import sl2, sl3
from .center import (casimir_elements, decompose, sl2_constrained_monos,
                     verify_identity)
from .centerpoly import CenterPoly, poly_eval
from .dependence import (condition1_check, decide_center_dependence,
                         duality_check, empirical_lld, empirical_ref,
                         loc_span_solve, witness_independence)
from .linalg import PolyMatrix, RatEchelon, ff_rank_kernel
from .reps import (apply_to_vector, c_scalar, d2_scalar, d3_scalar,
                   eval_element, mat_identity, mat_scale, prop32_vector,
                   sl2_irrep, theorem1_witness)
from .sl3reps import lemma_agreement, sl3_irrep


@dataclass
class CriterionResult:
    number: int
    label: str
    checks_ok: bool
    seconds: float
    budget: float
    detail: str = ""

    @property
    def ok(self):
        return self.checks_ok and self.seconds < self.budget

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        base = (f"criterion {self.number:2d}: {status} "
                f"({self.seconds:.2f}s, budget {self.budget:g}s) {self.label}")
        if self.detail:
            return f"{base} [{self.detail}]"
        return base


def _check(ok, msg="check failed"):
    # an explicit raise rather than assert, so the checks also run under -O
    if not ok:
        raise AssertionError(msg)


def _c1_sl2_casimir():
    C = casimir_elements("sl2")["C"]
    for k in range(1, 13):
        R = sl2_irrep(k)
        want = mat_scale(mat_identity(k), c_scalar(k))
        _check(eval_element(C, R) == want, f"Casimir not scalar at dim {k}")
    return "k = 1..12, all exact"


def _c2_sl3_casimir():
    Z = casimir_elements("sl3")
    for m1 in range(4):
        for m2 in range(4):
            R = sl3_irrep((m1, m2))
            for name, val in (("Z2", d2_scalar(m1, m2)),
                              ("Z3", d3_scalar(m1, m2))):
                want = mat_scale(mat_identity(R.dim), val)
                _check(eval_element(Z[name], R) == want,
                       f"{name} not scalar at weight ({m1},{m2})")
    return "Z2 and Z3 scalar on all weights up to (3,3)"


def _c3_minimal_dimension_ranks():
    A = sl2()
    for d in (1, 2, 3):
        monos = sl2_constrained_monos(d)
        want = sum(2 * e + 1 for e in range(d + 1))
        _check(len(monos) == want == (d + 1) ** 2)
        for t in (0, 1, 2):
            n = (d + 1) ** 2 + t
            R = sl2_irrep(n)
            vec = prop32_vector(d, t)
            ech = RatEchelon(n)
            for e in monos:
                ech.add(apply_to_vector(A.pbw_mono(e), R, vec))
            _check(ech.rank == want,
                   f"rank {ech.rank} != {want} at d={d} t={t}")
    return "rank (d+1)^2 for d <= 3, shifts 0..2"


def _c4_symmetric_block_witness():
    A = sl2()
    counts = {1: 4, 2: 10}
    for d in (1, 2):
        R, vec = theorem1_witness(2, d)
        ech = RatEchelon(R.dim)
        total = 0
        for s in range(d + 1):
            for a in range(s + 1):
                for b in range(s - a + 1):
                    total += 1
                    ech.add(apply_to_vector(
                        A.pbw_mono((a, b, s - a - b)), R, vec))
        _check(total == counts[d])
        _check(ech.rank == counts[d],
               f"rank {ech.rank} != {counts[d]} at d={d}")
    return "monomial images independent, counts 4 and 10"


def _rand_sl2_elem(rng, A, deg):
    e = A.pbw_zero()
    for _ in range(rng.randint(1, 4)):
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(3)] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        e = e + A.pbw_mono(tuple(exps)).scale(c)
    return e


def _rand_center_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[(rng.randint(0, 1),)] = c
    return CenterPoly(1, terms)


def _c5_dependence_round_trip():
    A = sl2()
    rng = random.Random(20260822)
    dep = indep = 0
    for _ in range(50):
        k = rng.randint(2, 4)
        ps = [_rand_sl2_elem(rng, A, 3) for _ in range(k)]
        if rng.random() < 0.45:
            comb = A.pbw_zero()
            for p in ps[:-1]:
                comb = comb + p.scale(_rand_center_poly(rng))
            ps[-1] = comb
        v = decide_center_dependence(ps)
        if v.kind == "dependent":
            dep += 1
            _check(verify_identity(v.certificate.z, ps))
            for entry in empirical_lld(ps, range(2, 9)):
                _check(entry["dependent"],
                       f"not dependent at {entry['label']}")
        else:
            indep += 1
            w = witness_independence(ps)
            _check(w.evidence["rank"] == k)
    _check(dep and indep, "instance mix failed to cover both verdicts")
    return f"{dep} dependent, {indep} independent, all cross-checked"


def _counterexample_instances():
    A = sl2()
    Cvar = CenterPoly.variable(1, 0)
    X2 = A.pbw_mono((2, 0, 0))
    H = A.pbw_gen("H")
    q1 = H
    p11 = X2.scale(Cvar) + H.scale(Fraction(3, 2))
    p12 = X2.scale(Fraction(3, 2)) + H.scale(Cvar)
    q2 = A.pbw_gen("X")
    ps2 = [A.pbw_const(1) + H,
           A.pbw_gen("X") + A.pbw_gen("Y"),
           A.pbw_gen("X").scale(Cvar - CenterPoly.const(1, Fraction(3, 2)))]
    q3 = A.pbw_const(1)
    p3 = A.pbw_const(1).scale(Cvar - CenterPoly.const(1, Fraction(3, 2)))
    return (q1, [p11, p12]), (q2, ps2), (q3, [p3])


def _c6_counterexample_suite():
    one, two, three = _counterexample_instances()

    q, ps = one
    cert = loc_span_solve(q, ps)
    _check(cert is not None)
    _check(poly_eval(cert.z0, (c_scalar(2),)) == 0, "denominator misses c_2")
    _check(condition1_check(cert, q) is False)
    for entry in empirical_lld(ps, range(2, 9), q=q):
        _check(entry["in_span"], f"span membership lost at {entry['label']}")

    q, ps = two
    lld = empirical_lld(ps, [2], q=q)
    _check(lld[0]["in_span"] is False, "operator span unexpectedly holds")
    for n in range(2, 7):
        rep = empirical_ref(q, ps, n, samples=100, seed=n)
        _check(rep["counterexample"] is None, f"vector counterexample at {n}")

    q, ps = three
    zc = CenterPoly.variable(1, 0) - CenterPoly.const(1, Fraction(3, 2))
    _check(verify_identity((zc, CenterPoly.const(1, Fraction(-1))), (q, *ps)))
    rep = empirical_ref(q, ps, 2, samples=10, seed=0)
    ce = rep["counterexample"]
    _check(ce is not None and ce["kind"] == "basis" and ce["index"] == 0)
    _check(ce["vector"] == ["1", "0"])
    return "all three localized-span instances behave as recorded"


def _rand_sl3_elem(rng, B, deg):
    e = B.pbw_zero()
    for _ in range(rng.randint(1, 5)):
        exps = [0] * 8
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(8)] += 1
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        e = e + B.pbw_mono(tuple(exps)).scale(c)
    return e


def _c7_sl3_basis_over_center():
    B = sl3()
    rng = random.Random(33)
    weights = [(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)]
    reps = {w: sl3_irrep(w) for w in weights}
    for trial in range(25):
        e = _rand_sl3_elem(rng, B, 4)
        d = decompose(e)
        for mono in d.monomials():
            _check(mono[1] * mono[4] == 0 and mono[7] <= 2,
                   f"unconstrained output monomial {mono}")
        _check(d.expand() == e, "recomposition drifted")
        for w in weights:
            R = reps[w]
            model, point = R._model, R.center_point
            _check(model.eval_columns(e, point)
                   == model.eval_columns(d.as_element(), point),
                   f"evaluation mismatch at weight {w}")
    return "25 elements, constraints and evaluations all exact"


def _c8_generator_action_table():
    R = sl3_irrep((3, 3))
    triples = [(i, j, k)
               for i in range(3) for j in range(3) for k in range(3)
               if i + j + k <= 2]
    _check(len(triples) == 10)
    for tri in triples:
        for gen in R.algebra.gens:
            _check(lemma_agreement(R, tri, gen), f"rule {gen} fails at {tri}")
    return "8 generator rules on 10 basis vectors at weight (3,3)"


def _rand_poly(rng, arity, deg):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = [0] * arity
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(arity)] += 1
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            terms[tuple(exps)] = c
    return CenterPoly(arity, terms)


def _c9_sampled_versus_symbolic_rank():
    rng = random.Random(9)
    for trial in range(20):
        arity = 1 + trial % 2
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = PolyMatrix(arity, rows, cols,
                       [[_rand_poly(rng, arity, 2) for _ in range(cols)]
                        for _ in range(rows)])
        sym = ff_rank_kernel(M).rank
        attained = 0
        for _ in range(20):
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(arity))
            ech = RatEchelon(cols)
            for i in range(rows):
                ech.add([poly_eval(M.entries[i][j], point)
                         for j in range(cols)])
            _check(ech.rank <= sym, "numeric rank exceeded symbolic rank")
            attained = max(attained, ech.rank)
        _check(attained == sym, f"symbolic rank {sym} never attained")
    return "20 matrices, 20 sample points each"


def _c10_trace_duality():
    A = sl2()
    rng = random.Random(10)
    for _ in range(20):
        k = rng.randint(1, 3)
        ps = [_rand_sl2_elem(rng, A, 2) for _ in range(k)]
        q = _rand_sl2_elem(rng, A, 2)
        for n in (2, 3, 4):
            res = duality_check(q, ps, n)
            _check(res["agrees"], f"duality split at {res['label']}")
    return "membership iff trace orthogonality, 20 instances at dims 2..4"


CRITERIA = (
    (1, 1.0, "sl2 Casimir eigenvalues", _c1_sl2_casimir),
    (2, 30.0, "sl3 Casimir eigenvalues", _c2_sl3_casimir),
    (3, 30.0, "constrained monomial ranks at minimal dimensions",
     _c3_minimal_dimension_ranks),
    (4, 10.0, "symmetric block witness independence",
     _c4_symmetric_block_witness),
    (5, 120.0, "dependence decision round trip, 50 seeded instances",
     _c5_dependence_round_trip),
    (6, 60.0, "localized span counterexample suite", _c6_counterexample_suite),
    (7, 120.0, "sl3 basis over the center, 25 seeded elements",
     _c7_sl3_basis_over_center),
    (8, 30.0, "generator action table at weight (3,3)",
     _c8_generator_action_table),
    (9, 10.0, "sampled versus symbolic rank", _c9_sampled_versus_symbolic_rank),
    (10, 30.0, "trace pairing duality", _c10_trace_duality),
)


def run_criterion(spec):
    number, budget, label, fn = spec
    t0 = time.perf_counter()
    try:
        detail = fn()
        checks_ok = True
    except AssertionError as ex:
        checks_ok, detail = False, str(ex) or "assertion failed"
    except Exception as ex:  # a crash is a failure, not a suite abort
        checks_ok, detail = False, f"{type(ex).__name__}: {ex}"
    dt = time.perf_counter() - t0
    return CriterionResult(number, label, checks_ok, dt, budget, detail)


def run_all(echo=None):
    results = []
    for spec in CRITERIA:
        res = run_criterion(spec)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
