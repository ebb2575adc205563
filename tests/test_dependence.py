"""Dependence decisions, localized span certificates, witness dimensions."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from envlld.algebra import sl2, sl3
from envlld.center import casimir_elements
from envlld.centerpoly import CenterPoly
from envlld.dependence import (Certificate, WitnessScanExceeded,
                               condition1_check, decide_c_dependence,
                               decide_center_dependence, duality_check,
                               empirical_lld, empirical_ref, loc_span_solve,
                               resolve_rep, sl2_denominator_roots,
                               sl3_weight_scan, trace_pairing_complement,
                               witness_independence)
from envlld.reps import sl2_irrep

CVAR = CenterPoly.variable(1)


def _consts(zs):
    return [z.const_value() for z in zs]


def test_scalar_dependence_certificates():
    A = sl2()
    x, y = A.pbw_gen("X"), A.pbw_gen("Y")
    v = decide_c_dependence([x, x.scale(2)])
    assert v.kind == "dependent" and _consts(v.certificate.z) == [2, -1]
    v = decide_c_dependence([x, y, x + y])
    assert v.kind == "dependent" and _consts(v.certificate.z) == [1, 1, -1]
    assert v.evidence == {"rank": 2, "count": 3, "monomials": 2}
    v = decide_c_dependence([A.pbw_zero()])
    assert v.kind == "dependent" and _consts(v.certificate.z) == [1]
    v = decide_c_dependence([A.pbw_gen("H")])
    assert v.kind == "independent" and v.certificate is None
    assert v.evidence["rank"] == 1


def test_scalar_certificate_is_the_first_dependency():
    # the kernel has dimension 2; the certificate writes 2X, the earliest
    # element in the span of the ones before it
    A = sl2()
    x = A.pbw_gen("X")
    v = decide_c_dependence([x.scale(3), x.scale(2), x])
    assert v.kind == "dependent" and _consts(v.certificate.z) == [2, -3, 0]
    assert v.evidence == {"rank": 1, "count": 3, "monomials": 1}


def test_scalar_dependence_rejects_center_coefficients():
    A = sl2()
    with pytest.raises(ValueError):
        decide_c_dependence([A.pbw_const(1).scale(CVAR)])


def test_center_dependence():
    A = sl2()
    C = casimir_elements("sl2")["C"]
    v = decide_center_dependence([A.pbw_const(1), C])
    assert v.kind == "dependent"
    assert v.certificate.z == (CVAR, CenterPoly.const(1, -1))
    v = decide_center_dependence([A.pbw_gen("X"), A.pbw_gen("Y")])
    assert v.kind == "independent"
    assert v.evidence["rank"] == 2


def _instance_two_by_two():
    # q = H against C X^2 + (3/2) H and (3/2) X^2 + C H
    A = sl2()
    x2 = A.pbw_mono((2, 0, 0))
    h = A.pbw_gen("H")
    p1 = x2.scale(CVAR) + h.scale(Fraction(3, 2))
    p2 = x2.scale(Fraction(3, 2)) + h.scale(CVAR)
    return h, [p1, p2]


def test_localized_span_certificate():
    q, ps = _instance_two_by_two()
    cert = loc_span_solve(q, ps)
    assert cert.z0 == CenterPoly(1, {(2,): 4, (0,): -9})
    assert cert.z == (CenterPoly.const(1, -6), CenterPoly(1, {(1,): 4}))
    # the denominator dies exactly at the 2-dimensional module, where q
    # still acts nonzero, so the certificate does not globalize
    assert sl2_denominator_roots(cert.z0) == [2]
    assert condition1_check(cert, q) is False
    reports = empirical_lld(ps, range(2, 6), q=q)
    assert [r["in_span"] for r in reports] == [True, True, True, True]
    assert reports[0]["label"] == "rho_2"


def test_localized_span_gap_instance():
    # a certificate exists, yet at the dimension killing its denominator the
    # matrix span loses q while no single vector witnesses the loss
    A = sl2()
    q = A.pbw_gen("X")
    shifted = CVAR - CenterPoly.const(1, Fraction(3, 2))
    ps = [A.pbw_const(1) + A.pbw_gen("H"),
          A.pbw_gen("X") + A.pbw_gen("Y"),
          A.pbw_gen("X").scale(shifted)]
    cert = loc_span_solve(q, ps)
    assert cert.z0 == CenterPoly(1, {(1,): 2, (0,): -3})
    assert _consts(cert.z) == [0, 0, 2]
    assert sl2_denominator_roots(cert.z0) == [2]
    assert condition1_check(cert, q) is False
    assert empirical_lld(ps, [2], q=q)[0]["in_span"] is False
    report = empirical_ref(q, ps, 2)
    assert report["counterexample"] is None
    assert report["checked"] == 22
    assert report["note"] == "no counterexample found"


def test_vector_counterexample_found():
    A = sl2()
    q = A.pbw_const(1)
    shifted = CVAR - CenterPoly.const(1, Fraction(3, 2))
    p = A.pbw_const(1).scale(shifted)
    report = empirical_ref(q, [p], 2)
    assert report["counterexample"] == {
        "kind": "basis", "index": 0, "vector": ["1", "0"]}
    assert report["checked"] == 1


def test_no_membership_certificate():
    A = sl2()
    assert loc_span_solve(A.pbw_gen("H"), [A.pbw_gen("X")]) is None
    # q inside the family solves with denominator one
    cert = loc_span_solve(A.pbw_gen("X"), [A.pbw_gen("X"), A.pbw_gen("Y")])
    assert cert.z0 == CenterPoly.const(1, 1)
    assert _consts(cert.z) == [1, 0]


def test_condition1_at_a_large_root_dimension():
    # z0 = 2C - 39999 vanishes at c_200; q = XY survives at rho_200, so the
    # check must say no, from sparse images rather than a 200 x 200 matrix
    A = sl2()
    q = A.pbw_mono((1, 1, 0))
    p = q.scale(CenterPoly(1, {(1,): 2, (0,): -39999}))
    start = time.perf_counter()
    cert = loc_span_solve(q, [p])
    assert cert.z0 == CenterPoly(1, {(1,): 2, (0,): -39999})
    assert sl2_denominator_roots(cert.z0) == [200]
    assert condition1_check(cert, q) is False
    assert time.perf_counter() - start < 3.0


def test_condition1_holds_where_q_acts_as_zero():
    # z0 = 2C - 15 vanishes at c_4, and X^4 acts by zero on rho_4
    A = sl2()
    q = A.pbw_gen("X", 4)
    cert = loc_span_solve(q, [q.scale(CenterPoly(1, {(1,): 2, (0,): -15}))])
    assert sl2_denominator_roots(cert.z0) == [4]
    assert condition1_check(cert, q) is True


_FAILING_CHECKS = """
import sys
import envlld.dependence as dep
from envlld.algebra import sl2
from envlld.cli import main
A = sl2()
real = dep.apply_to_vector
family = [A.pbw_gen("X"), A.pbw_gen("Y")]
# the witness images of the family itself come back as zero vectors
dep.apply_to_vector = lambda e, R, v: (
    [0] * R.dim if any(e is p for p in family) else real(e, R, v))
try:
    dep.witness_independence(family)
except dep.CertificateError:
    pass
else:
    sys.exit("witness rank check skipped")
dep.verify_identity = lambda zs, ps: False
try:
    dep.loc_span_solve(A.pbw_gen("X"), [A.pbw_gen("X")])
except dep.CertificateError:
    pass
else:
    sys.exit("localization check skipped")
sys.exit(main(["decide", "center", "I", "2XY + 1/2H^2 - H"]))
"""


def test_certificate_checks_survive_optimize():
    # under -O every assert is stripped; the certificate checks must still
    # raise, and the CLI must report a failed check with exit code 3
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-O", "-c", _FAILING_CHECKS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert "internal error: certificate failed recomposition" in res.stderr


def test_denominator_roots():
    assert sl2_denominator_roots(CenterPoly(1, {(2,): 4, (0,): -9})) == [2]
    assert sl2_denominator_roots(CVAR) == [1]
    assert sl2_denominator_roots(CenterPoly.const(1, 5)) == []
    with pytest.raises(ValueError):
        sl2_denominator_roots(CVAR - CenterPoly.const(1, 10 ** 7))
    with pytest.raises(AssertionError):
        sl2_denominator_roots(CenterPoly.zero(1))


def test_witness_dimension_and_vector():
    A = sl2()
    res = witness_independence([A.pbw_gen("X"), A.pbw_gen("Y")])
    assert res.n == 4
    assert res.vector == (0, 1, 0, 1)
    assert res.evidence == {"n": 4, "t": 0, "degree": 1, "rank": 2, "count": 2}
    res = witness_independence([A.pbw_const(1)])
    assert res.n == 1 and res.vector == (1,)
    res = witness_independence([A.pbw_gen("X"), A.pbw_gen("Y"), A.pbw_gen("H")])
    assert res.n == 4 and res.evidence["rank"] == 3


def test_witness_scan_gives_up_on_dependent_input():
    A = sl2()
    x = A.pbw_gen("X")
    with pytest.raises(WitnessScanExceeded):
        witness_independence([x, x.scale(2)], max_shift=5)


def test_weight_scan():
    z2 = CenterPoly.variable(2, 0)
    cert = Certificate((z2 - CenterPoly.const(2, 24),))
    assert sl3_weight_scan(cert, 4) == 3
    assert sl3_weight_scan(cert, 2) is None
    assert sl3_weight_scan(cert, 0) is None
    two = Certificate((z2 - CenterPoly.const(2, 24), CenterPoly.const(2, -1)))
    assert sl3_weight_scan(two, 4) == 1


def test_trace_pairing():
    R = sl2_irrep(2)
    comp = trace_pairing_complement([R.matrix("X")], 2)
    assert len(comp) == 3
    for B in comp:
        assert B[1][0] == 0
    A = sl2()
    rep = duality_check(A.pbw_gen("H"), [A.pbw_gen("X"), A.pbw_gen("Y")], 2)
    assert rep["member"] is False and rep["trace_zero"] is False
    assert rep["agrees"] and rep["complement_dim"] == 2
    rep = duality_check(A.pbw_gen("X") + A.pbw_gen("Y"),
                        [A.pbw_gen("X"), A.pbw_gen("Y")], 2)
    assert rep["member"] is True and rep["trace_zero"] is True


def test_empirical_rank_reports():
    A = sl2()
    x = A.pbw_gen("X")
    reports = empirical_lld([x, x.scale(2)], [1, 2])
    assert [r["dependent"] for r in reports] == [True, True]
    assert [r["rank"] for r in reports] == [0, 1]
    reports = empirical_lld([A.pbw_gen("X"), A.pbw_gen("Y"), A.pbw_gen("H")],
                            ["rho_2", 3])
    assert [r["label"] for r in reports] == ["rho_2", "rho_3"]
    assert [r["dependent"] for r in reports] == [False, False]


def test_sweep_past_the_cap_evaluates_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr("envlld.dependence.eval_element",
                        lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="dimension 142 exceeds"):
        empirical_lld([sl2().pbw_gen("X")], range(2, 400))
    assert calls == []


def test_resolve_rep_routes():
    assert resolve_rep(3).label == "rho_3"
    assert resolve_rep("rho_3") is resolve_rep(3)
    assert resolve_rep((1, 1)).label == "pi_1_1"
    assert resolve_rep("pi_1_1") is resolve_rep((1, 1))
    R = sl2_irrep(2)
    assert resolve_rep(R) is R
    with pytest.raises(ValueError):
        resolve_rep(200)
    # 141^2 entries fit under the cap, 142^2 do not
    assert resolve_rep(141).dim == 141
    with pytest.raises(ValueError, match="dimension 142 exceeds"):
        resolve_rep(142)
    with pytest.raises(ValueError):
        resolve_rep((9, 9))
    with pytest.raises(ValueError):
        resolve_rep(3.5)
    with pytest.raises(AssertionError):
        resolve_rep(2, A=sl3())
