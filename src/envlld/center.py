"""Casimir elements and the basis-over-center decomposition.

sl2: the center is generated by C = 2XY + H^2/2 - H and every element is a
unique combination of monomials X^a Y^b H^c with a*b = 0 over Q[C]; the
rewrite substitutes XY inside the graded-lex largest violating monomial.

sl3: the center is generated by a degree-2 and a degree-3 element Z2, Z3,
and the constrained monomials Y1^j1 Y2^j2 Y3^j3 X1^l1 X2^l2 X3^l3 H1^r1
H2^r2 have min(j2, l2) = 0 and r2 <= 2.  Two rewrite rules apply, always to
the degrevlex-largest violating monomial with rule 1 preferred:

  rule 1 eliminates a Y2 X2 pair via the Z2 relation (it may raise the H2
  exponent);
  rule 2 eliminates H2^3 via the leading term of Z3 + (1/3) Z2 (6 + 2H1 + H2)
  (it may introduce Y2 X2 pairs).

The admissible order ranks variables Y2 > X2 > H2 > Y3 > X3 > Y1 > X1 > H1
by graded reverse lex; both right-hand sides only introduce strictly smaller
monomials, which is asserted at every step, so the loop terminates.  The
rule-2 right-hand side is computed once per process and its leading monomial
is checked then.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import PBWElement, get_algebra, pbw_mul, pbw_normal_form, sl3
from .centerpoly import CenterPoly, grlex_key


class RewritingBudgetError(RuntimeError):
    """Raised when a decomposition exceeds its step budget."""


@lru_cache(maxsize=None)
def casimir_elements(name):
    """Defining central elements in PBW form, keyed by symbol name.

    Centrality is verified symbolically here, once per process.
    """
    A = get_algebra(name)
    w = A.free_word
    if name == "sl2":
        free = {"C": 2 * w("X", "Y") + Fraction(1, 2) * w("H", "H") - w("H")}
    else:
        h1, h2 = w("H1"), w("H2")
        one = A.free_const(1)
        free = {
            "Z2": (w("H1", "H1") + w("H1", "H2") + w("H2", "H2")
                   + 3 * (w("Y1", "X1") + w("Y2", "X2") + w("Y3", "X3"))
                   + 3 * h1 + 3 * h2),
            "Z3": (3 * w("Y1", "Y2", "X3") + 3 * w("Y3", "X1", "X2")
                   + Fraction(1, 9) * (h1 + 2 * h2) * (6 * one + 2 * h1 + h2)
                   * (-3 * one + h1 - h2)
                   + w("Y1", "X1") * (h1 + 2 * h2)
                   - w("Y2", "X2") * (6 * one + 2 * h1 + h2)
                   + w("Y3", "X3") * (-3 * one + h1 - h2)),
        }
    out = {}
    for sym, e in free.items():
        z = pbw_normal_form(e)
        for g in A.gens:
            ge = A.pbw_gen(g)
            assert (pbw_mul(z, ge) - pbw_mul(ge, z)).is_zero(), \
                f"{sym} is not central"
        out[sym] = z
    return out


@lru_cache(maxsize=None)
def _center_power(name, cexps):
    """PBW form of a product of powers of the defining central elements."""
    A = get_algebra(name)
    Z = casimir_elements(name)
    out = A.pbw_const(1)
    for sym, e in zip(A.center, cexps):
        for _ in range(e):
            out = pbw_mul(out, Z[sym])
    return out


def expand_center_coeffs(p):
    """Replace center symbols in the coefficients by their defining elements."""
    A = p.algebra
    out = A.pbw_zero()
    for exps, poly in p.terms.items():
        mono = A.pbw_mono(exps)
        for cexps, c in poly.terms.items():
            if any(cexps):
                out = out + pbw_mul(_center_power(A.name, cexps), mono).scale(c)
            else:
                out = out + mono.scale(c)
    return out


class CenterDecomposition:
    """Coordinates of an element in the constrained monomial basis over the
    center: a dict from exponent tuples to center polynomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        clean = {}
        for exps, t in terms.items():
            assert isinstance(t, CenterPoly) and t.arity == algebra.center_arity
            if not t.is_zero():
                assert _is_constrained(algebra, exps), exps
                clean[tuple(exps)] = t
        self.algebra = algebra
        self.terms = clean

    def monomials(self):
        """Constrained basis monomials present, in increasing graded-lex order."""
        return sorted(self.terms, key=grlex_key)

    def as_element(self):
        """The same data as a PBW element with center-symbol coefficients."""
        return PBWElement(self.algebra, dict(self.terms))

    def expand(self):
        """Substitute the defining central elements back in."""
        return expand_center_coeffs(self.as_element())

    def __eq__(self, other):
        if not isinstance(other, CenterDecomposition):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"CenterDecomposition({self.algebra.name}, {self.terms!r})"


def _is_constrained(A, exps):
    if A.name == "sl2":
        return not (exps[0] and exps[1])
    return not (exps[1] and exps[4]) and exps[7] <= 2


def sl2_constrained_monos(d):
    """The sl2 constrained monomials X^a H^c and Y^b H^c of degree <= d, by
    degree, then H exponent, X before Y."""
    out = []
    for s in range(d + 1):
        for c in range(s + 1):
            out.append((s - c, 0, c))
            if s > c:
                out.append((0, s - c, c))
    return out


def decompose(p):
    if p.algebra.name == "sl2":
        return decompose_sl2(p)
    return decompose_sl3(p)


def decompose_sl2(p):
    """Rewrite into X^a Y^b H^c monomials with a*b = 0 over Q[C]."""
    A = p.algebra
    assert A.name == "sl2"
    half_c = CenterPoly(1, {(1,): Fraction(1, 2)})
    work = dict(p.terms)
    while True:
        viol = [e for e in work if e[0] and e[1]]
        if not viol:
            break
        e = max(viol, key=grlex_key)
        coeff = work.pop(e)
        a, b, c = e[0] - 1, e[1] - 1, e[2]
        # X^a (XY) Y^b H^c with XY = C/2 - H^2/4 + H/2
        tgt = (a, b, c)
        add = coeff * half_c
        work[tgt] = work[tgt] + add if tgt in work else add
        for hpow, s in ((2, Fraction(-1, 4)), (1, Fraction(1, 2))):
            for eg, cc in A.mono_mul((a, 0, hpow), (0, b, c)).items():
                add = coeff * (s * cc)
                work[eg] = work[eg] + add if eg in work else add
        work = {k: v for k, v in work.items() if not v.is_zero()}
    return CenterDecomposition(A, work)


# degrevlex with significance Y2 > X2 > H2 > Y3 > X3 > Y1 > X1 > H1;
# comparing (degree, negated exponents read least-significant first) gives the
# same order, so max() picks the degrevlex-largest monomial
_REVERSED_READ = (6, 3, 0, 5, 2, 7, 4, 1)


def drl_key(exps):
    return (sum(exps), tuple(-exps[i] for i in _REVERSED_READ))


@lru_cache(maxsize=None)
def _sl3_rules():
    """Right-hand sides for the two rewrite rules, verified on construction."""
    A = sl3()
    Z = casimir_elements("sl3")
    z2v = CenterPoly.variable(2, 0)
    z3v = CenterPoly.variable(2, 1)
    third = Fraction(1, 3)

    def mono(*pairs):
        e = [0] * 8
        for g, k in pairs:
            e[A.index[g]] = k
        return tuple(e)

    # rule 1: Y2 X2 written through the degree-2 center element
    rule1 = PBWElement(A, {
        mono(): third * z2v,
        mono(("H1", 2)): CenterPoly.const(2, -third),
        mono(("H1", 1), ("H2", 1)): CenterPoly.const(2, -third),
        mono(("H2", 2)): CenterPoly.const(2, -third),
        mono(("Y1", 1), ("X1", 1)): CenterPoly.const(2, -1),
        mono(("Y3", 1), ("X3", 1)): CenterPoly.const(2, -1),
        mono(("H1", 1)): CenterPoly.const(2, -1),
        mono(("H2", 1)): CenterPoly.const(2, -1),
    })
    assert (expand_center_coeffs(rule1)
            - A.pbw_mono(mono(("Y2", 1), ("X2", 1)))).is_zero()

    # rule 2: H2^3 through the combination whose leading monomial it is
    shift = (A.pbw_const(6) + A.pbw_gen("H1", 1).scale(2) + A.pbw_gen("H2", 1))
    N = Z["Z3"] + pbw_mul(Z["Z2"], shift).scale(third)
    top = max(N.terms, key=drl_key)
    assert top == mono(("H2", 3)), "unexpected leading monomial in the rule-2 source"
    topc = N.terms[top]
    assert topc.is_const() and topc.const_value() == Fraction(1, 9)
    formal = PBWElement(A, {
        mono(): 9 * z3v + 18 * z2v,
        mono(("H1", 1)): 6 * z2v,
        mono(("H2", 1)): 3 * z2v,
    })
    rest = PBWElement(A, {e: c for e, c in N.terms.items() if e != top})
    rhs2 = formal - rest.scale(9)
    assert (expand_center_coeffs(rhs2) - A.pbw_mono(top)).is_zero()
    return rule1, rhs2


def decompose_sl3(p, max_steps=10 ** 6):
    """Rewrite into constrained monomials over Q[Z2, Z3].

    Always rewrites the degrevlex-largest violating monomial, rule 1 first;
    every step must introduce only strictly smaller monomials (asserted).
    Exceeding max_steps raises RewritingBudgetError rather than truncating.
    """
    A = p.algebra
    assert A.name == "sl3"
    rule1, rhs2 = _sl3_rules()
    work = dict(p.terms)
    steps = 0
    while True:
        viol = [e for e in work if (e[1] and e[4]) or e[7] >= 3]
        if not viol:
            break
        steps += 1
        if steps > max_steps:
            raise RewritingBudgetError(
                f"decomposition exceeded {max_steps} rewriting steps")
        e = max(viol, key=drl_key)
        coeff = work.pop(e)
        ekey = drl_key(e)
        if e[1] and e[4]:
            # e = L (Y2 X2) R; Y2 commutes with Y3 and X1, so the split is exact
            left = (e[0], e[1] - 1, e[2], e[3], 0, 0, 0, 0)
            right = (0, 0, 0, 0, e[4] - 1, e[5], e[6], e[7])
            rule = rule1
        else:
            left = e[:7] + (e[7] - 3,)
            right = (0,) * 8
            rule = rhs2
        for em, q in rule.terms.items():
            scaled = coeff * q
            for e1, c1 in A.mono_mul(left, em).items():
                for e2, c2 in A.mono_mul(e1, right).items():
                    assert drl_key(e2) < ekey, "rewriting step failed to decrease"
                    add = scaled * (c1 * c2)
                    work[e2] = work[e2] + add if e2 in work else add
        work = {k: v for k, v in work.items() if not v.is_zero()}
    return CenterDecomposition(A, work)


def verify_identity(zs, ps):
    """Check sum_i z_i p_i = 0 exactly, center symbols expanded."""
    assert len(zs) == len(ps) and ps
    A = ps[0].algebra
    total = A.pbw_zero()
    for z, p in zip(zs, ps):
        assert p.algebra is A
        total = total + p.scale(z)
    return expand_center_coeffs(total).is_zero()
