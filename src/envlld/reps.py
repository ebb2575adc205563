"""Finite-dimensional representations and exact element evaluation.

Covers the sl2 irreducibles rho_k, symmetric powers of block sums of the
defining representation, the graded witness pair used for independence
certificates, and the distinguished 0/1 vector whose monomial images realize
full rank.

Every module, the sl3 irreducibles and their polynomial model included,
stores one sparse action per generator: for each source basis vector, the
(destination, coefficient) pairs of its image, with coefficients kept as
ints when they are integral.  Elements are evaluated through these actions
alone.  The image of an ordered monomial is its first generator applied to
the image of the rest, so monomials share their prefixes; each module
caches its monomial images.  Dense tuples of Fractions appear only at
the boundary (matrix, mono_matrix, bracket_defect, eval_element).

Center coefficients of a PBW element are evaluated at the representation's
center point (its Casimir scalars); asking for a center value on a
representation that has none is an error, not a silent zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import PBWElement, sl2, sl3
from .centerpoly import as_rat, poly_eval

_ZERO = Fraction(0)

# entry cap of one generator matrix for a module built on request
MAX_ENTRIES = 20000


def c_scalar(k):
    """Casimir eigenvalue on the k-dimensional sl2 irreducible."""
    assert k >= 1
    return Fraction(k * k - 1, 2)


def d2_scalar(m1, m2):
    return Fraction(m1 * m1 + m1 * m2 + m2 * m2 + 3 * m1 + 3 * m2)


def d3_scalar(m1, m2):
    return Fraction((m1 + 2 * m2) * (6 + 2 * m1 + m2) * (m1 - m2 - 3), 9)


def casimir_scalars(label):
    """Center point for an irreducible label: rho_k or pi_m1_m2."""
    parts = label.split("_")
    try:
        if parts[0] == "rho" and len(parts) == 2:
            k = int(parts[1])
            if k >= 1:
                return (c_scalar(k),)
        if parts[0] == "pi" and len(parts) == 3:
            m1, m2 = int(parts[1]), int(parts[2])
            if m1 >= 0 and m2 >= 0:
                return (d2_scalar(m1, m2), d3_scalar(m1, m2))
    except ValueError:
        pass
    raise ValueError(f"not an irreducible label: {label!r}")


# -- small dense matrix helpers over Q --------------------------------------

def mat_zero(n, m=None):
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def mat_identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


# -- sparse actions ---------------------------------------------------------

def _num(c):
    """An exact scalar as an int when it is integral, else a Fraction."""
    if isinstance(c, int):
        return c
    c = as_rat(c)
    return c.numerator if c.denominator == 1 else c


def _apply(pairs_of, vec):
    """Image {dst: coeff} of a sparse vector {src: coeff} under one action."""
    out = {}
    for src, x in vec.items():
        for dst, c in pairs_of[src]:
            out[dst] = out.get(dst, 0) + c * x
    return {d: v for d, v in out.items() if v}


def _dense(n, columns):
    out = [[_ZERO] * n for _ in range(n)]
    for src, col in enumerate(columns):
        for dst, c in col:
            out[dst][src] = as_rat(c)
    return tuple(map(tuple, out))


class RepMatrices:
    """One sparse exact action per generator, plus a monomial image cache.

    action[g][src] holds the (dst, coeff) pairs of g applied to basis vector
    src.  center_point carries the Casimir scalars when the representation is
    irreducible.
    """

    __slots__ = ("algebra", "dim", "action", "label", "center_point",
                 "_images", "_model")

    def __init__(self, algebra, dim, action, label, center_point=None):
        assert set(action) == set(algebra.gens)
        fixed = {}
        for g, cols in action.items():
            cols = tuple(tuple((d, _num(c)) for d, c in col if c)
                         for col in cols)
            assert len(cols) == dim
            assert all(0 <= d < dim for col in cols for d, _ in col)
            fixed[g] = cols
        self.algebra = algebra
        self.dim = dim
        self.action = fixed
        self.label = label
        self.center_point = None if center_point is None else tuple(
            as_rat(x) for x in center_point)
        self._images = {(0,) * algebra.ngens: tuple({s: 1} for s in range(dim))}
        self._model = None

    def matrix(self, name):
        return _dense(self.dim, self.action[name])

    def mono_image(self, exps):
        """Sparse columns {dst: coeff} of one ordered monomial, cached.

        The image of exps is its first generator gi applied to the image of
        exps with one gi removed; the missing prefixes are filled in."""
        memo, chain = self._images, []
        while exps not in memo:
            gi = next(i for i, e in enumerate(exps) if e)
            chain.append((exps, gi))
            exps = exps[:gi] + (exps[gi] - 1,) + exps[gi + 1:]
        cols = memo[exps]
        for e, gi in reversed(chain):
            pairs_of = self.action[self.algebra.gens[gi]]
            cols = memo[e] = tuple(_apply(pairs_of, col) for col in cols)
        return cols

    def mono_matrix(self, exps):
        """Dense view of one ordered monomial; the dense form is not cached."""
        return _dense(self.dim, (c.items() for c in self.mono_image(exps)))

    def bracket_defect(self, a, b):
        """pi[a]pi[b] - pi[b]pi[a] minus the bracket expansion; zero matrix
        exactly when the defining relations hold in this representation."""
        A, act = self.algebra, self.action
        terms = A.bracket_table.get((A.index[a], A.index[b]), ())
        columns = []
        for src in range(self.dim):
            e = {src: 1}
            col = _apply(act[a], _apply(act[b], e))
            for dst, x in _apply(act[b], _apply(act[a], e)).items():
                col[dst] = col.get(dst, 0) - x
            for k, c in terms:
                for dst, x in _apply(act[A.gens[k]], e).items():
                    col[dst] = col.get(dst, 0) - c * x
            columns.append(col.items())
        return _dense(self.dim, columns)

    def __repr__(self):
        return f"RepMatrices({self.label}, dim={self.dim})"


def _coeff_value(p, R):
    if p.is_const():
        return p.const_value()
    if R.center_point is None:
        raise ValueError(
            f"{R.label} has no center point; cannot evaluate center coefficients")
    return poly_eval(p, R.center_point)


def _nonzero_terms(elem, R):
    assert isinstance(elem, PBWElement) and elem.algebra is R.algebra
    for exps, p in elem.terms.items():
        c = _coeff_value(p, R)
        if c:
            yield c, exps


def _columns(elem, R):
    """R(elem) one source column {dst: coeff} at a time, from the sparse
    monomial images."""
    terms = [(c, R.mono_image(exps))
             for c, exps in _nonzero_terms(elem, R)]
    for src in range(R.dim):
        col = {}
        for c, img in terms:
            for dst, x in img[src].items():
                col[dst] = col.get(dst, 0) + c * x
        yield col.items()


def eval_element(elem, R):
    """Exact matrix of a PBW element under R, as a tuple of Fraction rows."""
    return _dense(R.dim, _columns(elem, R))


def acts_as_zero(elem, R):
    """True when R(elem) is the zero operator, decided column by column with
    no dense matrix."""
    return not any(x for col in _columns(elem, R) for _, x in col)


def apply_to_vector(elem, R, vec):
    """R(elem) applied to a vector, as a list of Fractions, from the cached
    monomial images of R."""
    assert len(vec) == R.dim
    support = [(s, _num(x)) for s, x in enumerate(vec) if x]
    out = [_ZERO] * R.dim
    for c, exps in _nonzero_terms(elem, R):
        img = R.mono_image(exps)
        for s, x in support:
            cx = c * x
            for i, y in img[s].items():
                out[i] += cx * y
    return out


@lru_cache(maxsize=None)
def sl2_irrep(k):
    """The k-dimensional irreducible of sl2 in its standard weight basis."""
    assert k >= 1
    X = [((s - 1, k - s),) if s else () for s in range(k)]
    Y = [((s + 1, s + 1),) if s < k - 1 else () for s in range(k)]
    H = [((s, k - 1 - 2 * s),) for s in range(k)]
    return RepMatrices(sl2(), k, {"X": X, "Y": Y, "H": H}, f"rho_{k}",
                       center_point=(c_scalar(k),))


def mono_exps(nvars, deg):
    """Degree-deg multi-indices in descending lex order."""
    if nvars == 1:
        return [(deg,)]
    out = []
    for d in range(deg, -1, -1):
        for rest in mono_exps(nvars - 1, deg - d):
            out.append((d,) + rest)
    return out


def derivation_action(base, nvars, deg):
    """Action on degree-deg monomials induced by matrices on the variables.

    The variable span carries the representation x_j -> sum_i M_ij x_i; the
    derivation sum M_ij x_i d/dx_j extends it to each graded piece.
    """
    monos = mono_exps(nvars, deg)
    index = {m: i for i, m in enumerate(monos)}
    out = {}
    for g, M in base.items():
        cols = []
        for alpha in monos:
            col = {}
            for j in range(nvars):
                if not alpha[j]:
                    continue
                for i in range(nvars):
                    if not M[i][j]:
                        continue
                    beta = list(alpha)
                    beta[j] -= 1
                    beta[i] += 1
                    d = index[tuple(beta)]
                    col[d] = col.get(d, 0) + alpha[j] * M[i][j]
            cols.append(col.items())
        out[g] = cols
    return out, monos


def sym_power_rep(n, k):
    """k-th symmetric power of n block copies of the defining representation."""
    assert n in (2, 3) and k >= 1
    A = sl2() if n == 2 else sl3()
    # n block copies of the defining matrix on the n * n variables
    base = {g: [[A.mats[g][i % n][j % n] if i // n == j // n else 0
                 for j in range(n * n)] for i in range(n * n)]
            for g in A.gens}
    action, monos = derivation_action(base, n * n, k)
    return RepMatrices(A, len(monos), action, f"sym{k}_pi{n}")


def theorem1_witness(n, d):
    """Block sum of the symmetric powers 1..d together with its witness vector.

    Ordered generator monomials of degree at most d applied to the vector are
    linearly independent.  The vector is the tuple of powers of a sum of one
    basis vector per block copy; in monomial coordinates its entries are
    multinomial counts on the diagonal support.
    """
    assert d >= 1
    blocks = [sym_power_rep(n, k) for k in range(1, d + 1)]
    A = blocks[0].algebra
    action = {g: [] for g in A.gens}
    at = 0
    for B in blocks:
        for g, cols in B.action.items():
            action[g].extend(tuple((at + t, c) for t, c in col) for col in cols)
        at += B.dim
    diag = {i * n + i for i in range(n)}
    vec = []
    for k in range(1, d + 1):
        for alpha in mono_exps(n * n, k):
            if all(a == 0 or j in diag for j, a in enumerate(alpha)):
                m = factorial(k)
                for a in alpha:
                    m //= factorial(a)
                vec.append(Fraction(m))
            else:
                vec.append(Fraction(0))
    assert len(vec) == at
    return RepMatrices(A, at, action, f"symblock_{n}_{d}"), vec


def prop32_vector(d, t=0):
    """0/1 vector in dimension (d+1)^2 + t whose ordered monomial images at
    the irreducible of that dimension are independent through degree d."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    assert t >= 0
    positions = [d + 1]
    for k in range(1, d + 1):
        positions.append(positions[-1] + 2 * (d - k + 1))
    assert positions[-1] == (d + 1) ** 2
    vec = [Fraction(0)] * ((d + 1) ** 2 + t)
    for p in positions:
        vec[p - 1] = Fraction(1)
    return vec
