"""Correctness checks that share no code with envlld, but one.

The checker reads the request text and the formatted answer.  It has
its own parser for the surface grammar, builds its own irreducible modules
(sl2: rho_n in a weight basis; sl3: the defining module, its dual, the
adjoint, the symmetric square and its dual), reads the central characters
off the defining Casimir expressions, and evaluates expressions by exact
matrix products over Fraction.  Ranks come from its own Fraction
elimination.

What each verdict proves:
- a certificate z with sum z_i(c) rho(p_i) = 0 at several modules, not all
  z_i zero, is re-checked by evaluation;
- an sl2 family whose images at one rho_n are independent over Q is
  independent over Q[C] (a primitive dependence cannot vanish at c_n), so
  every sl2 `independent` and `not a member` answer is confirmed that way;
- `decide c` answers are over Q, so full rank at any module confirms them
  for both algebras;
- a planted dependence or span membership must be reported as such.
sl3 `independent` answers over the center have no cheap proof and are only
held to the planted cases.

Normal forms are checked twice: the input text and the answer must act
alike on two small modules, and the printed answer must parse back to the
element it was printed from (`round_trip`, the one check that runs envlld).
"""

from __future__ import annotations

import re
from fractions import Fraction

CENTER = {"sl2": ("C",), "sl3": ("Z2", "Z3")}

CASIMIR_TEXT = {
    "C": "2XY + 1/2H^2 - H",
    "Z2": "H1^2 + H1H2 + H2^2 + 3(Y1X1 + Y2X2 + Y3X3) + 3H1 + 3H2",
    "Z3": ("3Y1Y2X3 + 3Y3X1X2 + 1/9(H1 + 2H2)(6 + 2H1 + H2)(-3 + H1 - H2)"
           " + Y1X1(H1 + 2H2) - Y2X2(6 + 2H1 + H2) + Y3X3(-3 + H1 - H2)"),
}


class CheckFailed(Exception):
    """An answer contradicts what the checker can prove."""


# -- parsing to a small expression tree --------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\d*)|([-+*^()/]))")


def _tokens(text):
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckFailed(f"unreadable text at {pos}: {text!r}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


def parse(text):
    """Tree of ('num', q) | ('sym', name) | ('add', [(sign, t)]) |
    ('mul', [t]) | ('pow', t, k)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        parts = [(sign, term())]
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            parts.append((sign, term()))
        return ("add", parts)

    def term():
        fs = [factor()]
        while True:
            t = peek()
            if t == "*":
                take()
                fs.append(factor())
            elif t is not None and (t == "(" or t[0].isalnum()):
                fs.append(factor())
            else:
                return ("mul", fs)

    def factor():
        a = atom()
        if peek() == "^":
            take()
            return ("pow", a, int(take()))
        return a

    def atom():
        t = take()
        if t.isdigit():
            if peek() == "/":
                take()
                return ("num", Fraction(int(t), int(take())))
            return ("num", int(t))
        if t == "(":
            e = expr()
            if take() != ")":
                raise CheckFailed("unbalanced parentheses")
            return e
        return ("sym", t)

    e = expr()
    if pos != len(toks):
        raise CheckFailed(f"trailing text in {text!r}")
    return e


# -- exact matrices -----------------------------------------------------------

# Entries are ints until a rational coefficient makes them Fractions; the
# products and sums skip zeros, since generator matrices are sparse.

def _zero(n):
    return [[0] * n for _ in range(n)]


def _identity(n):
    m = _zero(n)
    for i in range(n):
        m[i][i] = 1
    return m


def _mul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _lin(a, b, s=1):
    return [[x + s * y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def _scale(a, c):
    return a if c == 1 else [[c * x if x else x for x in row] for row in a]


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a]


class Module:
    """Generator matrices of one module plus the scalars its center takes."""

    def __init__(self, label, mats):
        self.label = label
        self.mats = mats
        self.dim = len(next(iter(mats.values())))
        self.center = {}
        self._pows = {}
        algebra = "sl2" if "X" in mats else "sl3"
        for name in CENTER[algebra]:
            m = self.matrix(parse(CASIMIR_TEXT[name]))
            c = m[0][0]
            if m != _scale(_identity(self.dim), c):
                raise CheckFailed(f"{name} is not scalar on {label}")
            self.center[name] = c

    def _power(self, name, k):
        key = (name, k)
        if key not in self._pows:
            m = self.mats[name]
            self._pows[key] = m if k == 1 else _mul(self._power(name, k - 1), m)
        return self._pows[key]

    def matrix(self, node):
        """Matrix of an expression tree; center symbols act by scalars."""
        return self._as_matrix(self._value(node))

    def _value(self, node):
        # a number stands for that multiple of the identity
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "sym":
            name = node[1]
            if name == "I":
                return 1
            if name in self.center:
                return self.center[name]
            return self.mats[name]
        if kind == "pow":
            base, k = node[1], node[2]
            if k == 0:
                return 1
            if base[0] == "sym" and base[1] in self.mats:
                return self._power(base[1], k)
            v = self._value(base)
            if not isinstance(v, list):
                return v ** k
            out = v
            for _ in range(k - 1):
                out = _mul(out, v)
            return out
        if kind == "mul":
            acc = 1
            for f in node[1]:
                v = self._value(f)
                if not isinstance(acc, list):
                    acc = v * acc if not isinstance(v, list) else _scale(v, acc)
                elif isinstance(v, list):
                    acc = _mul(acc, v)
                else:
                    acc = _scale(acc, v)
            return acc
        total = 0
        for sign, t in node[1]:
            v = self._value(t)
            if isinstance(v, list) or isinstance(total, list):
                total = _lin(self._as_matrix(total), self._as_matrix(v), sign)
            else:
                total = total + sign * v
        return total

    def _as_matrix(self, v):
        return v if isinstance(v, list) else _scale(_identity(self.dim), v)

    def scalar(self, text_tree):
        """Value of a center polynomial at this module."""
        v = self._value(text_tree)
        if isinstance(v, list):
            raise CheckFailed("expected a center polynomial")
        return v

    def apply(self, node, vec):
        """The expression applied to a vector, right to left."""
        kind = node[0]
        if kind == "num":
            return [node[1] * x for x in vec]
        if kind == "sym":
            name = node[1]
            if name == "I":
                return list(vec)
            if name in self.center:
                return [self.center[name] * x for x in vec]
            return _mat_vec(self.mats[name], vec)
        if kind == "pow":
            for _ in range(node[2]):
                vec = self.apply(node[1], vec)
            return vec
        if kind == "mul":
            for f in reversed(node[1]):
                vec = self.apply(f, vec)
            return vec
        out = [0] * len(vec)
        for sign, t in node[1]:
            out = [a + sign * b for a, b in zip(out, self.apply(t, vec))]
        return out


# -- the modules --------------------------------------------------------------

def sl2_module(n):
    """rho_n with Y v_i = v_(i+1), X v_i = i(n-i) v_(i-1)."""
    X, Y, H = _zero(n), _zero(n), _zero(n)
    for i in range(n):
        H[i][i] = n - 1 - 2 * i
        if i + 1 < n:
            Y[i + 1][i] = 1
        if i:
            X[i - 1][i] = i * (n - i)
    return Module(f"rho_{n}", {"X": X, "Y": Y, "H": H})


def _e(i, j):
    m = _zero(3)
    m[i][j] = 1
    return m


def _sl3_defining():
    return {"Y1": _e(1, 0), "Y2": _e(2, 1), "Y3": _e(2, 0),
            "X1": _e(0, 1), "X2": _e(1, 2), "X3": _e(0, 2),
            "H1": _lin(_e(0, 0), _e(1, 1), -1),
            "H2": _lin(_e(1, 1), _e(2, 2), -1)}


def _dual(mats):
    return {g: [[-m[j][i] for j in range(len(m))] for i in range(len(m))]
            for g, m in mats.items()}


def _sym2(mats):
    # action on quadratic monomials x_a x_b (a <= b) by derivations
    basis = [(a, b) for a in range(3) for b in range(a, 3)]
    index = {mono: i for i, mono in enumerate(basis)}
    out = {}
    for g, m in mats.items():
        D = _zero(len(basis))
        for s, (a, b) in enumerate(basis):
            for src, other in ((a, b), (b, a)):
                for i in range(3):
                    if m[i][src]:
                        D[index[tuple(sorted((i, other)))]][s] += m[i][src]
        out[g] = D
    return out


def _adjoint(mats):
    # coordinates of a traceless 3x3 matrix in the generator basis
    def coords(M):
        c = [M[1][0], M[2][1], M[2][0], M[0][1], M[1][2], M[0][2],
             M[0][0], -M[2][2]]
        return c

    gens = list(mats)
    out = {}
    for g in gens:
        D = _zero(8)
        for s, h in enumerate(gens):
            comm = _lin(_mul(mats[g], mats[h]), _mul(mats[h], mats[g]), -1)
            for i, c in enumerate(coords(comm)):
                D[i][s] = c
        out[g] = D
    return out


def sl3_module(w):
    base = _sl3_defining()
    builders = {(1, 0): lambda: base, (0, 1): lambda: _dual(base),
                (1, 1): lambda: _adjoint(base), (2, 0): lambda: _sym2(base),
                (0, 2): lambda: _dual(_sym2(base))}
    return Module(f"pi_{w[0]}_{w[1]}", builders[tuple(w)]())


# -- exact rank ---------------------------------------------------------------

def rank(vectors):
    """Rank over Q by Fraction elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r]
        for i in range(r + 1, len(rows)):
            c = rows[i][col]
            if c:
                f = Fraction(c) / p[col]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], p)]
        r += 1
        if r == len(rows):
            break
    return r


def _flat(m):
    return [x for row in m for x in row]


# -- the print/parse round trip ----------------------------------------------

def round_trip(text, element):
    """parse_expr(text) is the free element that format_expr printed.

    The one check that runs envlld code, since it tests envlld's parser on
    envlld's printout.  The expected free element is built word by word from
    the PBW terms, center letters first as the printer writes them, and the
    comparison is of free elements, so no normal-form cache is touched.
    """
    from envlld.algebra import FreeElement
    from envlld.parser import parse_expr

    A = element.algebra
    terms = {}
    for gexps, poly in element.terms.items():
        gens = tuple(i for i, e in enumerate(gexps) for _ in range(e))
        for cexps, c in poly.terms.items():
            cent = tuple(A.ngens + i for i, e in enumerate(cexps) for _ in range(e))
            terms[cent + gens] = c
    return parse_expr(text, A) == FreeElement(A, terms)


# -- the checker --------------------------------------------------------------

SL2_SMALL = (2, 3, 4)
SL2_RANK_DIMS = range(2, 13)
SL3_SMALL = ((1, 0), (0, 1), (1, 1))
SL3_ALL = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


class Checker:
    """Checks answers; modules are built once and reused."""

    def __init__(self):
        self._modules = {}
        self._trees = {}

    def module(self, key):
        if key not in self._modules:
            self._modules[key] = (sl2_module(key) if isinstance(key, int)
                                  else sl3_module(key))
        return self._modules[key]

    def tree(self, text):
        t = self._trees.get(text)
        if t is None:
            t = self._trees[text] = parse(text)
        return t

    def _mats(self, texts, key):
        M = self.module(key)
        return [M.matrix(self.tree(t)) for t in texts]

    def _small(self, algebra):
        return SL2_SMALL if algebra == "sl2" else SL3_SMALL

    def _combination_vanishes(self, coeffs, texts, algebra):
        """sum coeffs_i(c) rho(texts_i) = 0 at the small modules."""
        if all(z.strip() == "0" for z in coeffs):
            raise CheckFailed("certificate is zero")
        for key in self._small(algebra):
            M = self.module(key)
            total = _zero(M.dim)
            for z, m in zip(coeffs, self._mats(texts, key)):
                total = _lin(total, _scale(m, M.scalar(self.tree(z))))
            if any(_flat(total)):
                raise CheckFailed(f"certificate fails at {M.label}")

    def _full_rank_somewhere(self, texts, keys):
        k = len(texts)
        for key in keys:
            if rank([_flat(m) for m in self._mats(texts, key)]) == k:
                return True
        return False

    def check(self, req, out):
        """Raise CheckFailed when the answer is wrong."""
        self._trees.clear()    # parsed texts are reused within one check only
        getattr(self, "_" + req.kind)(req, out)

    def _nf(self, req, out):
        self._same_action(req, out)
        if not round_trip(out["text"], out["element"]):
            raise CheckFailed("printed normal form does not parse back to it")

    def _decompose(self, req, out):
        self._same_action(req, out)

    def _same_action(self, req, out):
        keys = (3, 4) if req.algebra == "sl2" else ((1, 0), (0, 1))
        for key in keys:
            a, b = self._mats([req.exprs[0], out["text"]], key)
            if a != b:
                raise CheckFailed(f"answer acts differently on {key}")

    def _verdict(self, req, out, scalar):
        if req.planted and out["verdict"] != "dependent":
            raise CheckFailed("planted dependence reported independent")
        if out["verdict"] == "dependent":
            if len(out["z"]) != len(req.exprs):
                raise CheckFailed("certificate length differs from family")
            self._combination_vanishes(out["z"], req.exprs, req.algebra)
        elif scalar or req.algebra == "sl2":
            keys = SL2_RANK_DIMS if req.algebra == "sl2" else SL3_ALL
            if not self._full_rank_somewhere(req.exprs, keys):
                raise CheckFailed("independent family has no full-rank module")

    def _decide_center(self, req, out):
        self._verdict(req, out, scalar=False)

    def _decide_c(self, req, out):
        self._verdict(req, out, scalar=True)

    def _decide_loc(self, req, out):
        if out["verdict"] == "member":
            if out["z0"].strip() == "0":
                raise CheckFailed("span certificate has a zero denominator")
            self._combination_vanishes([out["z0"], *(f"-({z})" for z in out["z"])],
                                       [req.q, *req.exprs], req.algebra)
        elif req.planted:
            raise CheckFailed("planted member reported outside the span")
        elif req.algebra == "sl2":
            if not self._full_rank_somewhere([*req.exprs, req.q], SL2_RANK_DIMS):
                raise CheckFailed("non-member stays in the span everywhere")

    def _witness(self, req, out):
        if out["verdict"] == "dependent":
            self._combination_vanishes(out["z"], req.exprs, req.algebra)
            return
        n = out["n"]
        vec = [Fraction(x) for x in out["vector"]]
        if len(vec) != n:
            raise CheckFailed("witness vector has the wrong length")
        M = self.module(n)
        images = [M.apply(self.tree(t), vec) for t in req.exprs]
        if rank(images) != len(req.exprs):
            raise CheckFailed(f"witness images are dependent at rho_{n}")

    def _decide_ref(self, req, out):
        for rep in out["reports"]:
            if rep["vector"] is None:
                continue
            if req.planted:
                raise CheckFailed("counterexample to a planted membership")
            M = self.module(rep["dim"])
            vec = [Fraction(x) for x in rep["vector"]]
            images = [M.apply(self.tree(t), vec) for t in req.exprs]
            q = M.apply(self.tree(req.q), vec)
            if rank(images + [q]) == rank(images):
                raise CheckFailed(f"reported counterexample lies in the span "
                                  f"at dimension {rep['dim']}")

    def _rank_sweep(self, req, out):
        for key, got in zip(req.params["reps"], out["ranks"]):
            want = rank([_flat(m) for m in self._mats(req.exprs, key)])
            if got != want:
                raise CheckFailed(f"rank {got} at {key}, expected {want}")

    def _duality(self, req, out):
        if not out["agrees"]:
            raise CheckFailed("span membership and trace pairing disagree")
        mats = [_flat(m) for m in self._mats([*req.exprs, req.q], req.params["rep"])]
        member = rank(mats) == rank(mats[:-1])
        if out["member"] != member or (req.planted and not member):
            raise CheckFailed("span membership is wrong")
