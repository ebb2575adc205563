"""Enveloping algebras of sl2 and sl3 with PBW normal form.

Generator order is X < Y < H for sl2 and Y1 < Y2 < Y3 < X1 < X2 < X3 < H1 <
H2 for sl3.  Structure constants are not typed in: every bracket is computed
from the defining matrices and expanded back in the generator basis, with the
expansion verified exactly.

Normal form runs a worklist that always rewrites the leftmost out-of-order
adjacent pair, a*b -> b*a + [a, b].  A swap keeps its chain's step counter and
a bracket replacement starts a fresh chain; each chain is bounded by (word
length)^3 steps, asserted.  Words and the products of ordered monomials are
memoized per algebra.

Center symbols (C, or Z2 and Z3) are extra commuting letters, so free words
may mention them; PBW form folds them into the polynomial coefficient.  For
example the word YX normalizes to XY - H.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .centerpoly import CenterPoly, Rat, as_rat, grlex_key
from .linalg import RatEchelon


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _flatten(m):
    return [x for row in m for x in row]


class AlgebraSpec:
    """sl2 or sl3: ordered generators, defining matrices, computed brackets."""

    def __init__(self, name, gens, center, mats, matdim):
        self.name = name
        self.gens = tuple(gens)
        self.center = tuple(center)
        self.letters = self.gens + self.center
        self.mats = {g: tuple(tuple(Fraction(x) for x in row) for row in mats[g])
                     for g in self.gens}
        self.matdim = matdim
        self.ngens = len(self.gens)
        self.nletters = len(self.letters)
        self.index = {s: i for i, s in enumerate(self.letters)}
        self.bracket_table = self._compute_brackets()
        self._nf_cache = {}
        self._mono_cache = {}

    @property
    def center_arity(self):
        return len(self.center)

    def _expand_in_gens(self, mat):
        # mat = sum_g x_g mats[g] exactly when the columns (mats[g] | mat)
        # have a kernel vector (-x, 1); it is the last one, if there is one
        cols = [_flatten(self.mats[g]) for g in self.gens]
        target = _flatten(mat)
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
                table[(i, j)] = tuple((k, c) for k, c in enumerate(coords) if c)
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

    # -- rewriting engine --------------------------------------------------

    def _word_nf(self, word, _steps=0, _limit=None):
        """Normal form of one word: dict full-letter exponents -> coefficient.

        Rewrites the leftmost out-of-order adjacent pair; the swap branch
        continues the current chain, the bracket branch starts a fresh one.
        Results are memoized per word, so shared intermediates of different
        derivation paths are computed once.
        """
        hit = self._nf_cache.get(word)
        if hit is not None:
            return hit
        spot = -1
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                spot = i
                break
        if spot < 0:
            exps = [0] * self.nletters
            for a in word:
                exps[a] += 1
            out = {tuple(exps): Fraction(1)}
            self._nf_cache[word] = out
            return out
        if _limit is None:
            _limit = max(64, len(word) ** 3)
        _steps += 1
        assert _steps <= _limit, "rewriting chain exceeded its cubic step bound"
        a, b = word[spot], word[spot + 1]
        out = dict(self._word_nf(word[:spot] + (b, a) + word[spot + 2:],
                                 _steps, _limit))
        for k, c in self.bracket_table.get((a, b), ()):
            nw = word[:spot] + (k,) + word[spot + 2:]
            for e, c2 in self._word_nf(nw).items():
                acc = out.get(e, Fraction(0)) + c * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        self._nf_cache[word] = out
        return out

    def mono_mul(self, ea, eb):
        """Product of two ordered generator monomials: dict gen exps -> coeff."""
        hit = self._mono_cache.get((ea, eb))
        if hit is not None:
            return hit
        word = []
        for i, e in enumerate(ea):
            word.extend([i] * e)
        for i, e in enumerate(eb):
            word.extend([i] * e)
        raw = self._word_nf(tuple(word))
        out = {}
        for full, c in raw.items():
            assert not any(full[self.ngens:]), "center letter leaked into a product"
            out[full[:self.ngens]] = c
        self._mono_cache[(ea, eb)] = out
        return out

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


def pbw_normal_form(e, A=None):
    """PBW normal form of a free element; center letters become coefficients."""
    A = A or e.algebra
    assert A is e.algebra
    out = {}
    arity = A.center_arity
    for word, coeff in e.terms.items():
        for full, c in A._word_nf(word).items():
            gexps = full[:A.ngens]
            cexps = full[A.ngens:]
            p = CenterPoly(arity, {cexps: coeff * c})
            out[gexps] = out[gexps] + p if gexps in out else p
    return PBWElement(A, out)


def pbw_mul(a, b, A=None):
    """Product of two PBW elements, again in PBW normal form."""
    A = A or a.algebra
    assert A is a.algebra and A is b.algebra
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
    return AlgebraSpec("sl2", ("X", "Y", "H"), ("C",), mats, 2)


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
    return AlgebraSpec("sl3", gens, ("Z2", "Z3"), mats, 3)


def get_algebra(name):
    if name == "sl2":
        return sl2()
    if name == "sl3":
        return sl3()
    raise ValueError(f"unknown algebra {name!r} (expected sl2 or sl3)")
