"""Enveloping algebras of sl2 and sl3 with PBW normal form.

Generator order is X < Y < H for sl2 and Y1 < Y2 < Y3 < X1 < X2 < X3 < H1 <
H2 for sl3.  Structure constants are not typed in: every bracket is computed
from the defining matrices and expanded back in the generator basis, with the
expansion verified exactly.

Normal forms come from one rule.  For an ordered monomial m x_h whose last
generator x_h comes after the generator g,

    m x_h g = (m g) x_h + m [x_h, g];

if g does not come before x_h, m x_h g is already ordered.  The rule
terminates: every product it recurses on has lower degree or is ordered (the
leading term of m g times x_h is).  The engine works in integers, as every
sl2 and sl3 structure constant in these bases is one; a Fraction stays only
where a bracket coefficient is not integral.  Products are memoized.

Center symbols (C, or Z2 and Z3) are extra commuting letters, so free words
may mention them; PBW form folds them into the polynomial coefficient.  For
example the word YX normalizes to XY - H.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .centerpoly import CenterPoly, as_rat, grlex_key
from .linalg import RatEchelon


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


class AlgebraSpec:
    """sl2 or sl3: ordered generators, defining matrices, computed brackets."""

    def __init__(self, name, gens, center, mats):
        self.name = name
        self.gens = tuple(gens)
        self.center = tuple(center)
        self.mats = {g: tuple(tuple(Fraction(x) for x in row) for row in mats[g])
                     for g in self.gens}
        self.ngens = len(self.gens)
        self.index = {s: i for i, s in enumerate(self.gens + self.center)}
        self.bracket_table = self._compute_brackets()
        one = (0,) * self.ngens
        self._units = tuple(one[:i] + (1,) + one[i + 1:] for i in range(self.ngens))
        self._nf_cache = {(): {one: 1}}
        self._mono_cache = {}

    @property
    def center_arity(self):
        return len(self.center)

    def _expand_in_gens(self, mat):
        # mat = sum_g x_g mats[g] exactly when the columns (mats[g] | mat)
        # have a kernel vector (-x, 1); it is the last one, if there is one
        cols = [[x for row in self.mats[g] for x in row] for g in self.gens]
        target = [x for row in mat for x in row]
        ech = RatEchelon(len(cols) + 1)
        for i, t in enumerate(target):
            ech.add([col[i] for col in cols] + [t])
        kernel = ech.kernel()
        assert kernel and kernel[-1][-1] == 1, \
            "matrix is outside the span of the generators"
        x = [-a for a in kernel[-1][:-1]]
        for i, t in enumerate(target):
            assert sum(xj * col[i] for xj, col in zip(x, cols)) == t
        return x

    def _compute_brackets(self):
        table = {}
        for i, a in enumerate(self.gens):
            for j, b in enumerate(self.gens):
                if i == j:
                    continue
                comm = _mat_sub(_mat_mul(self.mats[a], self.mats[b]),
                                _mat_mul(self.mats[b], self.mats[a]))
                coords = self._expand_in_gens(comm)
                table[(i, j)] = tuple(
                    (k, c.numerator if c.denominator == 1 else c)
                    for k, c in enumerate(coords) if c)
        return table

    # -- elements ----------------------------------------------------------

    def free_word(self, *names):
        word = tuple(self.index[n] for n in names)
        return FreeElement(self, {word: Fraction(1)})

    def free_const(self, c):
        return FreeElement(self, {(): as_rat(c)})

    def free_zero(self):
        return FreeElement(self, {})

    def pbw_zero(self):
        return PBWElement(self, {})

    def pbw_const(self, c):
        return PBWElement(self, {(0,) * self.ngens: CenterPoly.const(self.center_arity, c)})

    def pbw_mono(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        assert len(exps) == self.ngens and all(e >= 0 for e in exps)
        if not isinstance(coeff, CenterPoly):
            coeff = CenterPoly.const(self.center_arity, coeff)
        assert coeff.arity == self.center_arity
        return PBWElement(self, {exps: coeff})

    def pbw_gen(self, name, power=1):
        exps = [0] * self.ngens
        exps[self.index[name]] = power
        return self.pbw_mono(exps)

    # -- normal form engine -------------------------------------------------

    def _mono_gen(self, m, g):
        """Ordered monomial m times generator g: dict exponents -> coefficient;
        p g for the prefixes p of m is cached from the shortest p up."""
        if not any(m[g + 1:]):
            return {m[:g] + (m[g] + 1,) + m[g + 1:]: 1}
        cache, unit = self._mono_cache, self._units[g]
        chain = []
        while any(m[g + 1:]) and (m, unit) not in cache:
            h = max(i for i, e in enumerate(m) if e)
            chain.append((m, h))
            m = m[:h] + (m[h] - 1,) + m[h + 1:]
        prod = cache[(m, unit)] if (m, unit) in cache else self._mono_gen(m, g)
        for p, h in reversed(chain):
            # p g = (m g) x_h + m [x_h, g], where p = m x_h
            out = {}
            for n, c in prod.items():
                _add_scaled(out, self._mono_gen(n, h), c)
            for k, b in self.bracket_table[(h, g)]:
                _add_scaled(out, self._mono_gen(m, k), b)
            cache[(p, unit)] = prod = out
            m = p
        return prod

    def _word_nf(self, word):
        """Normal form of a generator word: its longest cached prefix times
        the remaining letters one at a time.  Prefixes are cached where a run
        of one letter ends, so a power adds one key, not one per letter."""
        cache = self._nf_cache
        k = len(word)
        while word[:k] not in cache:
            k -= 1
        nf = cache[word[:k]]
        for k in range(k, len(word)):
            out = {}
            for m, c in nf.items():
                _add_scaled(out, self._mono_gen(m, word[k]), c)
            nf = out
            if word[k + 1:k + 2] != word[k:k + 1]:
                cache[word[:k + 1]] = nf
        return nf

    def mono_mul(self, ea, eb):
        """Product of two ordered generator monomials, the normal form of
        their concatenated words: dict gen exps -> coeff."""
        hit = self._mono_cache.get((ea, eb))
        if hit is None:
            n = self.ngens
            word = tuple(i % n for i, e in enumerate(ea + eb) for _ in range(e))
            hit = self._mono_cache[(ea, eb)] = self._word_nf(word)
        return hit

    def __repr__(self):
        return f"AlgebraSpec({self.name})"


class FreeElement:
    """Q-linear combination of words in generator and center letters."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if c}

    def __add__(self, other):
        assert isinstance(other, FreeElement) and other.algebra is self.algebra
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return FreeElement(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FreeElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return FreeElement(self.algebra, {w: c * v for w, v in self.terms.items()})
        assert isinstance(other, FreeElement) and other.algebra is self.algebra
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                terms[w] = terms.get(w, Fraction(0)) + ca * cb
        return FreeElement(self.algebra, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        out = self.algebra.free_const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"FreeElement({self.algebra.name}, {self.terms!r})"


class PBWElement:
    """PBW coordinates: ordered generator monomials with center coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        clean = {}
        for exps, p in terms.items():
            assert isinstance(p, CenterPoly) and p.arity == algebra.center_arity
            assert len(exps) == algebra.ngens
            if not p.is_zero():
                clean[exps] = p
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def degree(self):
        # generator degree only; center coefficients do not count
        return max((sum(e) for e in self.terms), default=-1)

    def monomials(self):
        """Exponent tuples in decreasing graded-lex order."""
        return sorted(self.terms, key=grlex_key, reverse=True)

    def coeff(self, exps):
        return self.terms.get(tuple(exps),
                              CenterPoly.zero(self.algebra.center_arity))

    def __add__(self, other):
        assert isinstance(other, PBWElement) and other.algebra is self.algebra
        terms = dict(self.terms)
        for e, p in other.terms.items():
            terms[e] = terms[e] + p if e in terms else p
        return PBWElement(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PBWElement(self.algebra, {e: -p for e, p in self.terms.items()})

    def scale(self, s):
        """Multiply by a rational or a center polynomial."""
        if not isinstance(s, CenterPoly):
            s = CenterPoly.const(self.algebra.center_arity, s)
        assert s.arity == self.algebra.center_arity
        return PBWElement(self.algebra, {e: p * s for e, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"PBWElement({self.algebra.name}, {self.terms!r})"


def _add_scaled(out, terms, s):
    for e, c in terms.items():
        if v := out.get(e, 0) + s * c:
            out[e] = v
        else:
            del out[e]


def pbw_normal_form(e):
    """PBW normal form of a free element; center letters, which commute with
    everything, become coefficients."""
    A = e.algebra
    n = A.ngens
    terms = {}
    for word, coeff in e.terms.items():
        gword = tuple(a for a in word if a < n)
        cexps = tuple(word.count(n + i) for i in range(A.center_arity))
        for gexps, c in A._word_nf(gword).items():
            t = terms.setdefault(gexps, {})
            t[cexps] = t.get(cexps, 0) + coeff * c
    return PBWElement(A, {g: CenterPoly(A.center_arity, t)
                          for g, t in terms.items()})


def pbw_mul(a, b):
    """Product of two PBW elements, again in PBW normal form."""
    A = a.algebra
    assert A is b.algebra
    out = {}
    for ea, pa in a.terms.items():
        for eb, pb in b.terms.items():
            pab = pa * pb
            for eg, c in A.mono_mul(ea, eb).items():
                p = pab * c
                out[eg] = out[eg] + p if eg in out else p
    return PBWElement(A, out)


def bracket(a, b, A):
    """[a, b] for generator names a, b: dict generator name -> coefficient."""
    ia, ib = A.index[a], A.index[b]
    assert ia < A.ngens and ib < A.ngens, "bracket is defined on generators"
    if ia == ib:
        return {}
    return {A.gens[k]: c for k, c in A.bracket_table[(ia, ib)]}


@lru_cache(maxsize=None)
def sl2():
    mats = {
        "X": ((0, 1), (0, 0)),
        "Y": ((0, 0), (1, 0)),
        "H": ((1, 0), (0, -1)),
    }
    return AlgebraSpec("sl2", ("X", "Y", "H"), ("C",), mats)


def _e3(i, j):
    return tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(3))
                 for r in range(3))


@lru_cache(maxsize=None)
def sl3():
    mats = {
        "Y1": _e3(1, 0),
        "Y2": _e3(2, 1),
        "Y3": _e3(2, 0),
        "X1": _e3(0, 1),
        "X2": _e3(1, 2),
        "X3": _e3(0, 2),
        "H1": _mat_sub(_e3(0, 0), _e3(1, 1)),
        "H2": _mat_sub(_e3(1, 1), _e3(2, 2)),
    }
    gens = ("Y1", "Y2", "Y3", "X1", "X2", "X3", "H1", "H2")
    return AlgebraSpec("sl3", gens, ("Z2", "Z3"), mats)


def get_algebra(name):
    if name == "sl2":
        return sl2()
    if name == "sl3":
        return sl3()
    raise ValueError(f"unknown algebra {name!r} (expected sl2 or sl3)")
