"""Command line front end.

Subcommands take expressions in the surface grammar and print either plain
text or a single structured JSON document.  Exit codes: 0 for success or a
positive verdict, 1 when a dependence or membership query comes back
negative, 2 for usage errors, 3 when an internal invariant breaks or a
certificate fails its check.

Expressions starting with a minus sign look like flags to the option
parser; put them after a bare -- separator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import get_algebra, pbw_normal_form
from .center import RewritingBudgetError, decompose
from .centerpoly import grlex_key
from .dependence import (CertificateError, WitnessScanExceeded,
                         condition1_check, decide_c_dependence,
                         decide_center_dependence, empirical_lld,
                         empirical_ref, loc_span_solve, resolve_rep,
                         sl3_weight_scan, witness_independence)
from .parser import ParseError, _mono_str, format_expr, format_poly, parse_expr
from .reps import sl2_irrep
from .sl3reps import sl3_irrep


def _build():
    ap = argparse.ArgumentParser(
        prog="envlld",
        description="Exact computations in enveloping algebras of sl2 and "
                    "sl3: normal forms, center decompositions, dependence "
                    "deciders, and representation evidence.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", choices=("sl2", "sl3"), default="sl2")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.add_argument("--out", metavar="FILE",
                       help="write the report here instead of stdout")

    p = sub.add_parser("nf", help="PBW normal form of expressions")
    common(p)
    p.add_argument("exprs", nargs="+", metavar="EXPR")

    p = sub.add_parser("decompose",
                       help="rewrite over the center in the constrained basis")
    common(p)
    p.add_argument("exprs", nargs="+", metavar="EXPR")

    p = sub.add_parser("rep", help="representation matrices and scalars")
    common(p)
    p.add_argument("--rep", type=int, metavar="K",
                   help="sl2 irreducible of dimension K")
    p.add_argument("--weights", nargs=2, type=int, metavar=("M1", "M2"),
                   help="sl3 highest weight")

    p = sub.add_parser("decide", help="dependence and span deciders")
    p.add_argument("mode", choices=("c", "center", "loc", "ref"))
    common(p)
    p.add_argument("--q", metavar="EXPR",
                   help="query element for loc and ref modes")
    p.add_argument("--rep", type=int, metavar="K")
    p.add_argument("--weights", nargs=2, type=int, metavar=("M1", "M2"))
    p.add_argument("--range", default="2..8", metavar="A..B",
                   help="dimension sweep for evidence reports")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("exprs", nargs="+", metavar="EXPR")

    p = sub.add_parser("witness",
                       help="independence witness, or the reason none exists")
    common(p)
    p.add_argument("--bound", type=int, default=8,
                   help="weight scan cap for dependent sl3 families")
    p.add_argument("exprs", nargs="+", metavar="EXPR")

    p = sub.add_parser("verify-paper", help="run the full acceptance suite")
    common(p)

    return ap


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like 2..8, got {text!r}")
    if not 1 <= lo <= hi:
        raise ValueError(f"empty or invalid range {text!r}")
    return lo, hi


def _poly_table(p, names):
    return {_mono_str(names, exps) or "1": str(c)
            for exps, c in p.sorted_terms()}


def _poly_doc(p, names):
    return {"text": format_poly(p, names), "table": _poly_table(p, names)}


def _element_doc(e):
    A = e.algebra
    return {"text": format_expr(e),
            "table": {_mono_str(A.gens, m) or "1":
                      _poly_table(e.coeff(m), A.center)
                      for m in e.monomials()}}


def _certificate_doc(cert, names):
    doc = {"z": [_poly_doc(z, names) for z in cert.z]}
    if cert.z0 is not None:
        doc["z0"] = _poly_doc(cert.z0, names)
    return doc


def _cert_line(cert, names):
    return "(" + ", ".join(format_poly(z, names) for z in cert.z) + ")"


def _parse_all(texts, A):
    return [pbw_normal_form(parse_expr(t, A)) for t in texts]


def _cmd_nf(args, A):
    results, lines = [], []
    for src in args.exprs:
        e = pbw_normal_form(parse_expr(src, A))
        results.append({"input": src, "normal_form": _element_doc(e)})
        lines.append(format_expr(e))
    return {"results": results}, lines, 0


def _cmd_decompose(args, A):
    results, lines = [], []
    for src in args.exprs:
        d = decompose(pbw_normal_form(parse_expr(src, A)))
        ordered = sorted(d.terms.items(),
                         key=lambda kv: (kv[1].degree(), grlex_key(kv[0])),
                         reverse=True)
        results.append({
            "input": src,
            "text": format_expr(d),
            "terms": [{"monomial": _mono_str(A.gens, m) or "1",
                       "coefficient": _poly_doc(p, A.center)}
                      for m, p in ordered]})
        lines.append(format_expr(d))
    return {"results": results}, lines, 0


def _pick_rep(args, A):
    if A.name == "sl2":
        if args.weights is not None:
            raise ValueError("--weights selects an sl3 module; "
                             "this is sl2, use --rep K")
        if args.rep is None:
            raise ValueError("need --rep K for sl2")
        if args.rep < 1:
            raise ValueError("dimension must be positive")
        return sl2_irrep(args.rep)
    if args.rep is not None:
        raise ValueError("--rep selects an sl2 dimension; "
                         "this is sl3, use --weights M1 M2")
    if args.weights is None:
        raise ValueError("need --weights M1 M2 for sl3")
    m1, m2 = args.weights
    if m1 < 0 or m2 < 0:
        raise ValueError("weights must be non-negative")
    return sl3_irrep((m1, m2))


def _grid(mat):
    cells = [[str(x) for x in row] for row in mat]
    widths = [max(len(cells[i][j]) for i in range(len(cells)))
              for j in range(len(cells[0]))]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths))
            for row in cells]


def _cmd_rep(args, A):
    R = _pick_rep(args, A)
    doc = {"label": R.label, "dim": R.dim,
           "center": {name: str(val)
                      for name, val in zip(A.center, R.center_point)},
           "matrices": {g: [[str(x) for x in row] for row in R.matrix(g)]
                        for g in A.gens}}
    lines = [f"{R.label}  dim {R.dim}",
             "center acts by " + ", ".join(
                 f"{n} = {v}" for n, v in zip(A.center, R.center_point))]
    for g in A.gens:
        lines.append(f"{g}:")
        lines.extend("  " + row for row in _grid(R.matrix(g)))
    return doc, lines, 0


def _cmd_decide(args, A):
    names = A.center
    ps = _parse_all(args.exprs, A)
    if args.mode in ("c", "center"):
        if args.q is not None:
            raise ValueError("--q applies to loc and ref modes")
        decider = (decide_c_dependence if args.mode == "c"
                   else decide_center_dependence)
        v = decider(ps)
        doc = {"verdict": v.kind, "evidence": v.evidence}
        lines = [v.kind]
        if v.certificate is not None:
            doc["certificate"] = _certificate_doc(v.certificate, names)
            lines.append("certificate: " + _cert_line(v.certificate, names))
        return doc, lines, 0 if v.kind == "dependent" else 1

    if args.q is None:
        raise ValueError(f"decide {args.mode} needs --q EXPR")
    q = pbw_normal_form(parse_expr(args.q, A))
    lo, hi = _parse_range(args.range)

    if args.mode == "loc":
        cert = loc_span_solve(q, ps)
        if cert is None:
            return ({"verdict": "not a member"},
                    ["no span certificate over the localized center"], 1)
        doc = {"verdict": "member",
               "certificate": _certificate_doc(cert, names)}
        lines = [f"z0 = {format_poly(cert.z0, names)}"]
        lines += [f"z{i} = {format_poly(z, names)}"
                  for i, z in enumerate(cert.z, start=1)]
        if A.name == "sl2":
            cond = condition1_check(cert, q)
            doc["denominator_clears_all_dimensions"] = cond
            lines.append(f"denominator clears every dimension: {cond}")
            sweep = empirical_lld(ps, range(lo, hi + 1), q=q)
            doc["span_by_dimension"] = sweep
            lines += [f"  {e['label']}: in span = {e['in_span']}"
                      for e in sweep]
        return doc, lines, 0

    # ref: sample vectors at one module or across a dimension sweep, every
    # module resolved before any is sampled
    if A.name == "sl3" or args.weights is not None or args.rep is not None:
        items = [_pick_rep(args, A)]
    else:
        items = [resolve_rep(n, A) for n in range(lo, hi + 1)]
    results, lines, found = [], [], False
    for item in items:
        rep = empirical_ref(q, ps, item, samples=args.samples, seed=args.seed)
        results.append(rep)
        ce = rep["counterexample"]
        if ce is None:
            lines.append(f"{rep['label']}: no counterexample found "
                         f"({rep['checked']} vectors)")
        else:
            found = True
            lines.append(f"{rep['label']}: counterexample {ce['kind']} "
                         f"#{ce['index']} v = ({', '.join(ce['vector'])})")
    doc = {"samples": args.samples, "seed": args.seed, "results": results}
    return doc, lines, 1 if found else 0


def _cmd_witness(args, A):
    names = A.center
    ps = _parse_all(args.exprs, A)
    v = decide_center_dependence(ps)
    if v.kind == "dependent":
        doc = {"verdict": "dependent",
               "certificate": _certificate_doc(v.certificate, names)}
        lines = ["family is dependent over the center; "
                 "no independence witness exists",
                 "certificate: " + _cert_line(v.certificate, names)]
        if A.name == "sl3":
            d = sl3_weight_scan(v.certificate, args.bound)
            doc["weight_scan"] = {"bound": args.bound, "uniform_from": d}
            if d is None:
                lines.append(f"weight scan up to {args.bound}: inconclusive")
            else:
                lines.append(f"weight scan: from weights ({d},{d}) on, "
                             "no module kills the whole certificate")
        return doc, lines, 1
    if A.name == "sl2":
        w = witness_independence(ps)
        doc = {"verdict": "independent", "n": w.n,
               "vector": [str(x) for x in w.vector],
               "evidence": w.evidence}
        lines = [f"independent; witness dimension n = {w.n}",
                 "vector: (" + ", ".join(str(x) for x in w.vector) + ")"]
        return doc, lines, 0
    doc = {"verdict": "independent",
           "note": "constructive witness covers sl2 families only"}
    return doc, [doc["note"], "verdict: independent"], 0


def _cmd_verify_paper(args, A):
    from .acceptance import run_all
    results = run_all()
    lines = [r.line() for r in results]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} criteria passed")
    doc = {"criteria": [{"number": r.number, "label": r.label, "ok": r.ok,
                         "checks_ok": r.checks_ok, "seconds": r.seconds,
                         "budget": r.budget, "detail": r.detail}
                        for r in results],
           "passed": passed, "total": len(results)}
    return doc, lines, 0 if passed == len(results) else 1


_HANDLERS = {
    "nf": _cmd_nf,
    "decompose": _cmd_decompose,
    "rep": _cmd_rep,
    "decide": _cmd_decide,
    "witness": _cmd_witness,
    "verify-paper": _cmd_verify_paper,
}


def _emit(doc, lines, args):
    if args.format == "structured":
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        payload = "\n".join(lines) + "\n" if lines else ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None):
    ap = _build()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    t0 = time.perf_counter()
    try:
        A = get_algebra(args.algebra)
        doc, lines, code = _HANDLERS[args.command](args, A)
    except (ParseError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (AssertionError, CertificateError, RewritingBudgetError,
            WitnessScanExceeded) as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 3
    doc = {"command": args.command,
           **({"mode": args.mode} if args.command == "decide" else {}),
           "algebra": args.algebra,
           **({"inputs": list(args.exprs)} if hasattr(args, "exprs") else {}),
           **({"q": args.q} if getattr(args, "q", None) else {}),
           **doc,
           "timing_ms": round((time.perf_counter() - t0) * 1000, 3)}
    _emit(doc, lines, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
