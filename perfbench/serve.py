"""Serve one benchmark request in-process, in the call order of the CLI.

Each handler follows the `envlld` subcommand it mirrors: parse the text,
take the PBW normal form, run the decider or evidence function, then format
the result as text.  The result is a dict of strings and plain values, the
same facts the subcommand prints, which the correctness checks read; an nf
answer also carries its element for the print/parse round trip.
"""

from __future__ import annotations

from envlld.algebra import get_algebra, pbw_normal_form
from envlld.center import decompose
from envlld.dependence import (condition1_check, decide_c_dependence,
                               decide_center_dependence, duality_check,
                               empirical_lld, empirical_ref, loc_span_solve,
                               witness_independence)
from envlld.parser import format_expr, format_poly, parse_expr

from workloads import SL2_SWEEP_TOP


def _nf(text, A):
    return pbw_normal_form(parse_expr(text, A))


def _polys(ps, names):
    return [format_poly(p, names) for p in ps]


def _nf_request(req, A):
    e = _nf(req.exprs[0], A)
    return {"text": format_expr(e), "element": e}


def _decompose_request(req, A):
    return {"text": format_expr(decompose(_nf(req.exprs[0], A)))}


def _decide_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    decider = (decide_c_dependence if req.kind == "decide_c"
               else decide_center_dependence)
    v = decider(ps)
    out = {"verdict": v.kind}
    if v.certificate is not None:
        out["z"] = _polys(v.certificate.z, A.center)
    return out


def _loc_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    q = _nf(req.q, A)
    cert = loc_span_solve(q, ps)
    if cert is None:
        return {"verdict": "not a member"}
    out = {"verdict": "member", "z0": format_poly(cert.z0, A.center),
           "z": _polys(cert.z, A.center)}
    if A.name == "sl2":
        out["clears"] = condition1_check(cert, q)
        sweep = empirical_lld(ps, range(2, SL2_SWEEP_TOP + 1), q=q)
        out["in_span"] = [e["in_span"] for e in sweep]
    return out


def _witness_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    v = decide_center_dependence(ps)
    if v.kind == "dependent":
        return {"verdict": "dependent", "z": _polys(v.certificate.z, A.center)}
    w = witness_independence(ps)
    return {"verdict": "independent", "n": w.n,
            "vector": [str(x) for x in w.vector], "t": w.evidence["t"]}


def _ref_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    q = _nf(req.q, A)
    reports = []
    for n in range(2, SL2_SWEEP_TOP + 1):
        rep = empirical_ref(q, ps, n, samples=req.params["samples"],
                            seed=req.params["seed"])
        ce = rep["counterexample"]
        reports.append({"dim": rep["dim"],
                        "vector": None if ce is None else ce["vector"]})
    return {"reports": reports}


def _sweep_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    sweep = empirical_lld(ps, req.params["reps"])
    return {"ranks": [e["rank"] for e in sweep]}


def _duality_request(req, A):
    ps = [_nf(t, A) for t in req.exprs]
    q = _nf(req.q, A)
    rep = duality_check(q, ps, req.params["rep"])
    return {"member": rep["member"], "agrees": rep["agrees"]}


HANDLERS = {
    "nf": _nf_request,
    "decompose": _decompose_request,
    "decide_center": _decide_request,
    "decide_c": _decide_request,
    "decide_loc": _loc_request,
    "witness": _witness_request,
    "decide_ref": _ref_request,
    "rank_sweep": _sweep_request,
    "duality": _duality_request,
}


def serve(req):
    """Answer one request; raises whatever the library raises."""
    return HANDLERS[req.kind](req, get_algebra(req.algebra))
