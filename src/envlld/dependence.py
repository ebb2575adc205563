"""Deciders for linear dependence over the center, with certificates.

Three exact layers, each backed by a different kind of evidence:

- dependence with scalar coefficients: rational kernel of the PBW coordinate
  matrix;
- dependence with center coefficients: fraction-free kernel of the matrix of
  decomposition coordinates, a nonzero kernel vector being a certificate
  that recomposes to an exact identity;
- membership of q in the span after localizing the center: a fraction-field
  solve returning (z0, z) with z0 * q = sum z_i p_i, plus a check whether
  the denominator z0 vanishes on an irreducible where q survives.

The empirical layer evaluates families at chosen irreducibles and reports
per-representation ranks or span membership; the witness layer produces an
explicit dimension and vector making the monomial images independent, which
certifies independence without sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
import random

from .algebra import PBWElement
from .center import decompose, sl2_constrained_monos, verify_identity
from .centerpoly import CenterPoly, grlex_key, poly_eval
from .linalg import (CertificateError, PolyMatrix, RatEchelon, ff_rank_kernel,
                     solve_fraction_field)
from .reps import (MAX_ENTRIES, RepMatrices, acts_as_zero, apply_to_vector,
                   c_scalar, casimir_scalars, d2_scalar, d3_scalar,
                   eval_element, prop32_vector, sl2_irrep)
from .sl3reps import sl3_irrep


@dataclass(frozen=True)
class Certificate:
    """Center-polynomial coefficients witnessing a dependence or a span
    membership; z0 is the localizing denominator when one is involved."""
    z: tuple
    z0: object = None


@dataclass(frozen=True)
class Verdict:
    kind: str                      # "dependent" | "independent"
    certificate: object = None
    evidence: dict = field(default_factory=dict)


def _check_family(ps):
    assert ps, "need at least one element"
    A = ps[0].algebra
    for p in ps:
        assert isinstance(p, PBWElement) and p.algebra is A
    return A


def decide_c_dependence(ps):
    """Dependence with plain rational coefficients.  Inputs must be center
    free; the coordinate matrix over the PBW monomials decides exactly.

    The certificate is the first dependency in input order: the relation
    that writes the earliest p_f lying in the span of p_1 .. p_(f-1).
    """
    A = _check_family(ps)
    for p in ps:
        for poly in p.terms.values():
            if not poly.is_const():
                raise ValueError("scalar dependence is for center-free inputs")
    monos = sorted({e for p in ps for e in p.terms}, key=grlex_key)
    ech = RatEchelon(len(ps))
    for m in monos:
        ech.add([p.coeff(m).const_value() for p in ps])
    kernel = ech.kernel()
    ev = {"rank": ech.rank, "count": len(ps), "monomials": len(monos)}
    if kernel:
        z = _coprime_ints(kernel[0], A.center_arity)
        return Verdict("dependent", Certificate(z), ev)
    return Verdict("independent", None, ev)


def _coprime_ints(vals, arity):
    # a rational relation prints as coprime integers, first nonzero positive
    nz = [v for v in vals if v]
    scale = Fraction(lcm(*(v.denominator for v in nz)),
                     gcd(*(v.numerator for v in nz)))
    if nz[0] < 0:
        scale = -scale
    return tuple(CenterPoly.const(arity, x * scale) for x in vals)


def _coordinate_matrix(decs, arity):
    monos = sorted({m for d in decs for m in d.terms}, key=grlex_key)
    zero = CenterPoly.zero(arity)
    entries = [[d.terms.get(m, zero) for d in decs] for m in monos]
    return monos, PolyMatrix(arity, len(monos), len(decs), entries)


def decide_center_dependence(ps):
    """Dependence with coefficients in the center, decided exactly.

    The kernel of the decomposition-coordinate matrix is computed fraction
    free; a nonzero kernel vector is returned as a certificate and checked
    against the defining identity before being reported.
    """
    A = _check_family(ps)
    decs = [decompose(p) for p in ps]
    monos, M = _coordinate_matrix(decs, A.center_arity)
    res = ff_rank_kernel(M)
    ev = {"rank": res.rank, "count": len(ps), "monomials": len(monos)}
    if res.kernel_basis:
        z = res.kernel_basis[0]
        if not verify_identity(list(z), ps):
            raise CertificateError("certificate failed recomposition")
        return Verdict("dependent", Certificate(z), ev)
    return Verdict("independent", None, ev)


def loc_span_solve(q, ps):
    """Certificate (z0, z) with z0 q = sum z_i p_i over the center, or None."""
    A = _check_family(ps)
    assert q.algebra is A
    decs = [decompose(p) for p in ps]
    dq = decompose(q)
    arity = A.center_arity
    monos = sorted({m for d in [dq, *decs] for m in d.terms}, key=grlex_key)
    zero = CenterPoly.zero(arity)
    M = PolyMatrix(arity, len(monos), len(decs),
                   [[d.terms.get(m, zero) for d in decs] for m in monos])
    b = [dq.terms.get(m, zero) for m in monos]
    sol = solve_fraction_field(M, b)
    if sol is None:
        return None
    z0, z = sol
    if not verify_identity([z0, *(-zi for zi in z)], [q, *ps]):
        raise CertificateError("localization certificate failed recomposition")
    return Certificate(z, z0)


# largest dimension sl2_denominator_roots will test
ROOT_BOUND_CAP = 1000


def sl2_denominator_roots(z0):
    """Dimensions n with z0(c_n) = 0, found exactly via a root bound."""
    assert z0.arity == 1 and not z0.is_zero()
    if z0.is_const():
        return []
    deg = z0.degree()
    lead = z0.terms[(deg,)]
    bound = 1 + max((abs(c / lead) for e, c in z0.terms.items() if e != (deg,)),
                    default=Fraction(0))
    # c_n = (n^2 - 1)/2 <= bound constrains n
    nmax = isqrt(int(2 * bound) + 1) + 1
    if nmax > ROOT_BOUND_CAP:
        raise ValueError(
            f"denominator root bound {nmax} exceeds cap {ROOT_BOUND_CAP}")
    return [n for n in range(1, nmax + 1) if poly_eval(z0, (c_scalar(n),)) == 0]


def condition1_check(cert, q):
    """True when the denominator certificate survives every irreducible:
    z0 may only vanish at dimensions where q itself acts as zero."""
    assert q.algebra.name == "sl2", "the denominator check is an sl2 notion"
    z0 = cert.z0
    assert z0 is not None and not z0.is_zero()
    return all(acts_as_zero(q, sl2_irrep(n))
               for n in sl2_denominator_roots(z0))


def resolve_rep(item, A=None):
    """A representation from an int (sl2 dimension), a weight pair (sl3), a
    label string, or a ready RepMatrices instance."""
    if isinstance(item, RepMatrices):
        R = item
    elif isinstance(item, int):
        if item * item > MAX_ENTRIES:
            raise ValueError(f"dimension {item} exceeds the matrix entry cap")
        R = sl2_irrep(item)
    elif isinstance(item, (tuple, list)) and len(item) == 2:
        R = sl3_irrep(tuple(item))
    elif isinstance(item, str):
        point = casimir_scalars(item)  # validates the label shape
        parts = item.split("_")
        if parts[0] == "rho":
            R = resolve_rep(int(parts[1]), A)
        else:
            R = sl3_irrep((int(parts[1]), int(parts[2])))
        assert R.center_point == point
    else:
        raise ValueError(f"cannot resolve a representation from {item!r}")
    if A is not None:
        assert R.algebra is A, "representation does not match the algebra"
    return R


def _flat(mat):
    return [x for row in mat for x in row]


def empirical_lld(ps, rep_range, q=None):
    """Per-representation ranks of a family, or span membership of q.

    Exact evaluation at each listed irreducible; center coefficients take the
    representation's Casimir values.  Returns one report dict per entry, in
    the given order.  Every module is resolved before any is evaluated, so
    a range past the size cap fails at once.
    """
    A = _check_family(ps)
    out = []
    for R in [resolve_rep(item, A) for item in rep_range]:
        ech = RatEchelon(R.dim * R.dim)
        for p in ps:
            ech.add(_flat(eval_element(p, R)))
        entry = {"label": R.label, "dim": R.dim, "count": len(ps),
                 "rank": ech.rank}
        if q is None:
            entry["dependent"] = ech.rank < len(ps)
        else:
            assert q.algebra is A
            entry["in_span"] = ech.contains(_flat(eval_element(q, R)))
        out.append(entry)
    return out


def empirical_ref(q, ps, rep, samples=20, seed=0):
    """Search for a vector v with q v outside span{p_i v} at one irreducible.

    Tries the standard basis first, then seeded random rational vectors.
    Stops at the first counterexample; otherwise reports that none was found.
    """
    A = _check_family(ps)
    assert q.algebra is A
    R = resolve_rep(rep, A)
    rng = random.Random(seed)
    report = {"label": R.label, "dim": R.dim, "samples": samples,
              "seed": seed, "checked": 0, "counterexample": None}

    def trial(vec, kind, idx):
        ech = RatEchelon(R.dim)
        for p in ps:
            ech.add(apply_to_vector(p, R, vec))
        if not ech.contains(apply_to_vector(q, R, vec)):
            report["counterexample"] = {
                "kind": kind, "index": idx,
                "vector": [str(x) for x in vec]}
            return True
        return False

    for i in range(R.dim):
        vec = [Fraction(1 if j == i else 0) for j in range(R.dim)]
        report["checked"] += 1
        if trial(vec, "basis", i):
            return report
    for s in range(samples):
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(R.dim)]
        report["checked"] += 1
        if trial(vec, "random", s):
            return report
    report["note"] = "no counterexample found"
    return report


@dataclass(frozen=True)
class WitnessResult:
    n: int
    vector: tuple
    evidence: dict


class WitnessScanExceeded(RuntimeError):
    """Raised when no witness dimension is found within the scan cap."""


def witness_independence(ps, max_shift=50):
    """Explicit (n, v) certifying independence of an sl2 family over the
    center: the images rho_n(p_i) v are linearly independent.

    Scans n = (d+1)^2 + t for t = 0..max_shift where d is the top degree of
    the decomposition monomials; accepts n once the coordinate matrix keeps
    full rank at c_n and the distinguished vector realizes independent
    monomial images.  Exceeding the cap raises, never returns quietly.
    """
    A = _check_family(ps)
    assert A.name == "sl2"
    decs = [decompose(p) for p in ps]
    monos, M = _coordinate_matrix(decs, 1)
    k = len(ps)
    d = max((sum(m) for m in monos), default=0)

    def rank_at(n):
        ech = RatEchelon(len(monos))
        for j in range(k):
            ech.add([poly_eval(M.entries[i][j], (c_scalar(n),))
                     for i in range(len(monos))])
        return ech.rank

    for t in range(max_shift + 1):
        if d == 0:
            n = 1 + t
            vec = [Fraction(1)] + [Fraction(0)] * t
        else:
            n = (d + 1) ** 2 + t
            vec = prop32_vector(d, t)
        if rank_at(n) < k:
            continue
        R = sl2_irrep(n)
        if d > 0:
            shapes = sl2_constrained_monos(d)
            assert len(shapes) == (d + 1) ** 2
            ech = RatEchelon(n)
            for e in shapes:
                ech.add(apply_to_vector(A.pbw_mono(e), R, vec))
            if ech.rank < len(shapes):
                continue
        final = RatEchelon(n)
        for p in ps:
            final.add(apply_to_vector(p, R, vec))
        if final.rank != k:
            raise CertificateError("witness images lost rank unexpectedly")
        ev = {"n": n, "t": t, "degree": d, "rank": final.rank, "count": k}
        return WitnessResult(n, tuple(vec), ev)
    raise WitnessScanExceeded(
        f"no witness dimension found with shift up to {max_shift}")


def sl3_weight_scan(cert, bound):
    """Least d <= bound such that no weight (m1, m2) with d <= m1, m2 <= bound
    zeroes every certificate entry; None when the scan stays inconclusive."""
    zs = [z for z in cert.z]
    assert zs and all(z.arity == 2 for z in zs)
    points = {}
    for m1 in range(1, bound + 1):
        for m2 in range(1, bound + 1):
            points[(m1, m2)] = (d2_scalar(m1, m2), d3_scalar(m1, m2))
    for d in range(1, bound + 1):
        killed = False
        for m1 in range(d, bound + 1):
            for m2 in range(d, bound + 1):
                if all(poly_eval(z, points[(m1, m2)]) == 0 for z in zs):
                    killed = True
                    break
            if killed:
                break
        if not killed:
            return d
    return None


def trace_pairing_complement(mats, dim):
    """Basis of the matrices B with tr(M B) = 0 for every listed M."""
    ech = RatEchelon(dim * dim)
    for M in mats:
        ech.add([M[b][a] for a in range(dim) for b in range(dim)])
    return [tuple(tuple(v[a * dim + b] for b in range(dim))
                  for a in range(dim))
            for v in ech.kernel()]


def duality_check(q, ps, rep):
    """Span membership versus annihilation by the trace-orthogonal complement.

    The two sides agree for any finite family; the report carries both bits
    so disagreement is visible immediately.
    """
    A = _check_family(ps)
    R = resolve_rep(rep, A)
    pmats = [eval_element(p, R) for p in ps]
    qmat = eval_element(q, R)
    ech = RatEchelon(R.dim * R.dim)
    for M in pmats:
        ech.add(_flat(M))
    member = ech.contains(_flat(qmat))
    comp = trace_pairing_complement(pmats, R.dim)
    tzero = all(
        sum(qmat[a][b] * B[b][a] for a in range(R.dim) for b in range(R.dim)) == 0
        for B in comp)
    return {"label": R.label, "member": member, "trace_zero": tzero,
            "agrees": member == tzero, "complement_dim": len(comp)}
