"""Exact scalars: polynomials over the centers Q[C] and Q[Z2, Z3].

A center polynomial is a sparse dict mapping exponent tuples to nonzero
fractions.Fraction coefficients; the algebra engine and the module actions
keep int coefficients where they can.  Arity 1 is the sl2 center (one symbol
C), arity 2 the sl3 center (Z2, Z3).  The term order is graded lex with Z2
ranked above Z3; "leading coefficient" always refers to this order, and it
fixes the sign conventions used by kernel and certificate normalization
downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _ilcm

Rat = Fraction


def as_rat(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected a rational scalar, got {type(c).__name__}")


def grlex_key(exps):
    return (sum(exps), exps)


class CenterPoly:
    """Immutable-by-convention polynomial in 1 or 2 commuting center symbols."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        assert arity in (1, 2)
        self.arity = arity
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            assert len(exps) == arity and all(e >= 0 for e in exps)
            c = as_rat(c)
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def const(cls, arity, c):
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity, idx=0):
        exps = [0] * arity
        exps[idx] = 1
        return cls(arity, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self):
        assert self.is_const()
        return self.terms.get((0,) * self.arity, Fraction(0))

    def degree(self):
        # total degree; -1 for the zero polynomial
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self):
        """(exponents, coefficient) of the graded-lex largest term."""
        assert self.terms, "zero polynomial has no leading term"
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self):
        """Terms in decreasing graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def sort_key(self):
        """Canonical total order on polynomials of one arity (used for pivot ties)."""
        return tuple((e, c.numerator, c.denominator) for e, c in self.sorted_terms())

    def __add__(self, other):
        if not isinstance(other, CenterPoly):
            return NotImplemented
        assert self.arity == other.arity
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return CenterPoly(self.arity, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CenterPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return CenterPoly(self.arity, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, CenterPoly):
            return NotImplemented
        assert self.arity == other.arity
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
        return CenterPoly(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        out = CenterPoly.const(self.arity, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, CenterPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"CenterPoly({self.arity}, {self.terms!r})"


def poly_eval(p, point):
    """Evaluate p at a tuple of rationals, one per center symbol."""
    point = tuple(as_rat(x) for x in point)
    assert len(point) == p.arity
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(point, exps):
            if e:
                v *= x**e
        total += v
    return total


def divexact(a, b):
    """Exact quotient a/b in Q[center]; ValueError if b does not divide a."""
    assert isinstance(a, CenterPoly) and isinstance(b, CenterPoly)
    assert a.arity == b.arity
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quot = {}
    rem = dict(a.terms)
    be, bc = b.leading()
    while rem:
        re = max(rem, key=grlex_key)
        qe = tuple(x - y for x, y in zip(re, be))
        if any(e < 0 for e in qe):
            raise ValueError("not an exact quotient")
        qc = rem[re] / bc
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        for ce, cc in b.terms.items():
            te = tuple(x + y for x, y in zip(qe, ce))
            nv = rem.get(te, Fraction(0)) - qc * cc
            if nv:
                rem[te] = nv
            else:
                rem.pop(te, None)
    return CenterPoly(a.arity, quot)


def zprimitive_scale(p):
    """The positive rational lam with lam*p having coprime integer coefficients."""
    assert not p.is_zero()
    dens = [c.denominator for c in p.terms.values()]
    big = _ilcm(*dens)
    nums = [abs(c.numerator) * (big // c.denominator) for c in p.terms.values()]
    return Fraction(big, _igcd(*nums))


# ---------------------------------------------------------------------------
# gcd of center polynomials: one primitive polynomial remainder sequence
# (Brown 1971), recursive over the symbols.  In symbol v a polynomial is its
# content (the gcd at v + 1 of its coefficients in v; a rational unit in the
# last symbol) times a primitive part.  The gcd is the gcd of the contents
# times the last nonconstant remainder of the primitive parts, each remainder
# made primitive again so that coefficients stay small.
#
# A bivariate gcd first tries to prove that it is free of Z2.  Fix Z3 where the
# Z2-leading coefficient of a does not vanish (b, primitive in Z2, is not
# identically 0 there): a gcd of Z2-degree k specializes to a common divisor of
# Z2-degree k, so a constant gcd of the specializations proves k = 0, and the
# gcd is the gcd of the contents.  The common case, a kernel vector without
# content, so needs no bivariate remainder sequence.

def _coeffs(p, v):
    """p as a polynomial in symbol v: {degree: coefficient free of symbol v}."""
    split = {}
    for e, c in p.terms.items():
        split.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {d: CenterPoly(p.arity, t) for d, t in split.items()}


def _deg(p, v):
    return max(e[v] for e in p.terms)


def _content_split(p, v):
    """(content, primitive part with coprime integer coefficients) of p in v."""
    if v == p.arity - 1:
        return CenterPoly.const(p.arity, 1), p * zprimitive_scale(p)
    cont = None
    for c in _coeffs(p, v).values():
        cont = c if cont is None else _gcd(cont, c, v + 1)
    prim = divexact(p, cont)
    return cont, prim * zprimitive_scale(prim)


def _prem(a, b, v):
    """A pseudo-remainder of a by b in symbol v, of lower v-degree than b."""
    db = _deg(b, v)
    lb = _coeffs(b, v)[db]
    while not a.is_zero() and _deg(a, v) >= db:
        da = _deg(a, v)
        shift = _coeffs(a, v)[da] * CenterPoly.variable(a.arity, v) ** (da - db)
        a = a * lb - b * shift
    return a


def _z2_free(a, b):
    """True when specialization proves that gcd(a, b) has Z2-degree 0."""
    for z3 in (2, 3, 5, 7, 11):
        a1, b1 = (CenterPoly(1, {(d,): poly_eval(c, (0, z3)) for d, c
                                 in _coeffs(p, 0).items()}) for p in (a, b))
        if a1.degree() == _deg(a, 0):
            return _gcd(a1, b1, 0).is_const()
    return False


def _gcd(a, b, v):
    """A gcd of the nonzero a and b, which involve no symbol before v."""
    ca, a = _content_split(a, v)
    cb, b = _content_split(b, v)
    cont = _gcd(ca, cb, v + 1) if v + 1 < a.arity else ca
    if a.arity == 2 and v == 0 and _z2_free(a, b):
        return cont
    if _deg(a, v) < _deg(b, v):
        a, b = b, a
    while _deg(b, v) > 0:
        r = _prem(a, b, v)
        if r.is_zero():
            return b * cont
        a, b = b, _content_split(r, v)[1]
    return cont


def _unit(p):
    """The rational lam with lam*p integer-primitive and leading term positive."""
    lam = zprimitive_scale(p)
    return -lam if p.leading()[1] < 0 else lam


def poly_gcd(a, b):
    """Canonical gcd: integer-primitive with positive leading coefficient."""
    assert a.arity == b.arity
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
    else:
        g = _gcd(a, b, 0)
    return g * _unit(g)


def gcd_many(polys):
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ValueError("gcd of an all-zero family is undefined")
    g = nz[0]
    for p in nz[1:]:
        if g.is_const():
            break
        g = poly_gcd(g, p)
    return g * _unit(g)


def content_normalize(vs):
    """Canonical representative of a nonzero vector up to Q[center]-scaling.

    Divides out the polynomial gcd of the entries, then rescales so the first
    nonzero entry has coprime integer coefficients and a positive leading
    coefficient.  Idempotent; rejects the all-zero vector.
    """
    vs = list(vs)
    g = gcd_many(vs)
    out = [v if v.is_zero() else divexact(v, g) for v in vs]
    lam = _unit(next(v for v in out if not v.is_zero()))
    return tuple(v * lam for v in out)
