"""Irreducible sl3 representations built from a two-factor polynomial model.

The highest weight (m1, m2) module sits inside Sym^m1(C^3) (x) Sym^m2(C^3).
The first factor carries the defining action; the second carries the dual
action written in the flipped basis (e3, -e2, e1), which makes both factors
act by integer derivation operators.  The model is the tensor product of the
two derivation_action modules, an ordinary sparse RepMatrices whose vectors
are {index: int} dicts.  Starting from x1^m1 (x) u1^m2, the lowering
monomials Y1^i Y2^j Y3^k are applied in lexicographic (i+j+k, i, j) order
and a vector is admitted exactly when it enlarges the span.  Every
generated vector is weight homogeneous, so admission and coordinate solves
run blockwise per weight: one rational echelon per weight, whose rows carry
an identity tail, both admits vectors and reads off coordinates.  The sparse
action of each generator on the admitted basis comes from those coordinates,
verified against the model action entry by entry, so an sl3 irreducible is
an ordinary RepMatrices and is evaluated through the same sparse monomial
images as every other module.

The closed-form single-generator action on the lowering basis (valid while
m1 and m2 exceed the total lowering degree) is available separately as
lemma_action for cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PBWElement, sl3
from .centerpoly import poly_eval
from .linalg import CertificateError, RatEchelon
from .reps import (MAX_ENTRIES, RepMatrices, _apply, d2_scalar, d3_scalar,
                   derivation_action)


def classical_dim(m1, m2):
    # Weyl dimension count; used as a guard heuristic and a test oracle only,
    # never as an input to the construction itself
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


_P = ((0, 0, 1), (0, -1, 0), (1, 0, 0))


def _dual_matrix(Z):
    # second-factor action of Z in the flipped basis: P (-Z^t) P
    mt = [[-Z[j][i] for j in range(3)] for i in range(3)]
    left = [[sum(_P[i][k] * mt[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    return [[sum(left[i][k] * _P[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


class Sl3Model:
    """Polynomial model of the (m1, m2) module with integer arithmetic.

    rep is the tensor product of the two factors as a sparse module; model
    vectors are sparse {index: int} dicts, index a * nu + b for the a-th
    monomial of the first factor and the b-th of the second.
    """

    def __init__(self, m1, m2):
        self.m1 = m1
        self.m2 = m2
        A = sl3()
        mats = {g: [[int(x) for x in row] for row in A.mats[g]] for g in A.gens}
        act1, xmon = derivation_action(mats, 3, m1)
        act2, umon = derivation_action(
            {g: _dual_matrix(Z) for g, Z in mats.items()}, 3, m2)
        nu = len(umon)
        self.N = len(xmon) * nu
        action = {}
        for g in A.gens:
            cols = []
            for a, col1 in enumerate(act1[g]):
                for b, col2 in enumerate(act2[g]):
                    col = {da * nu + b: c for da, c in col1}
                    for db, c in col2:
                        col[a * nu + db] = col.get(a * nu + db, 0) + c
                    cols.append(col.items())
            action[g] = cols
        self.rep = RepMatrices(A, self.N, action, f"model_{m1}_{m2}")
        H1, H2 = self.rep.action["H1"], self.rep.action["H2"]
        assert all(d == s for s in range(self.N) for d, _ in H1[s] + H2[s]), \
            "Cartan action is not diagonal on monomials"
        self.weights = [(sum(c for _, c in H1[s]), sum(c for _, c in H2[s]))
                        for s in range(self.N)]
        # x1^m1 (x) u1^m2: both factors list their top monomial first
        assert xmon[0] == (m1, 0, 0) and umon[0] == (m2, 0, 0)
        self.vmemo = {(0, 0, 0): {0: 1}}
        self.admitted = None
        self.basis = None
        self.blocks = None

    def weight_of(self, v):
        wts = {self.weights[i] for i, x in v.items() if x}
        assert len(wts) <= 1, "generated vector is not weight homogeneous"
        return next(iter(wts), None)

    def lowering_vector(self, tri):
        """Y1^i Y2^j Y3^k applied to the starting vector, memoized."""
        v = self.vmemo.get(tri)
        if v is not None:
            return v
        i, j, k = tri
        assert i >= 0 and j >= 0 and k >= 0
        if i > 0:
            parent, g = (i - 1, j, k), "Y1"
        elif j > 0:
            parent, g = (i, j - 1, k), "Y2"
        else:
            parent, g = (i, j, k - 1), "Y3"
        v = _apply(self.rep.action[g], self.lowering_vector(parent))
        self.vmemo[tri] = v
        return v

    def close(self):
        """Admit lowering vectors in (i+j+k, i, j) order until a level dies.

        Each weight keeps one echelon of its admitted vectors (v | e_t), the
        t-th admitted vector of the weight with the t-th unit tail; it
        decides admission and gives coordinates (see coords_of).
        """
        weight_rows = {}
        for r, wt in enumerate(self.weights):
            weight_rows.setdefault(wt, []).append(r)
        blocks = {}
        admitted = []
        basis = []
        level = 0
        while True:
            found = False
            for i in range(level + 1):
                for j in range(level + 1 - i):
                    tri = (i, j, level - i - j)
                    v = self.lowering_vector(tri)
                    if not v:
                        continue
                    found = True
                    wt = self.weight_of(v)
                    rows = weight_rows[wt]
                    n = len(rows)
                    ech, cols = blocks.setdefault(wt, (RatEchelon(2 * n), []))
                    red = ech.reduce([v.get(r, 0) for r in rows] + [0] * n)
                    if any(red[:n]):
                        # (v | 0) reduced plus the unit tail spans the same
                        # rows as (v | e_t) and is already reduced
                        red[n + len(cols)] += 1
                        ech.add(red)
                        cols.append(len(admitted))
                        admitted.append(tri)
                        basis.append(v)
            if not found and level > 0:
                break
            level += 1
            # the weight strictly drops along lowerings, so closure must stop
            assert level <= 4 * (self.m1 + self.m2) + 4, "closure failed to terminate"
        self.admitted = tuple(admitted)
        self.basis = basis
        self.blocks = {wt: (weight_rows[wt], ech, cols)
                       for wt, (ech, cols) in blocks.items()}
        return len(admitted)

    def coords_of(self, u):
        """Coordinates of a model vector in the admitted basis, blockwise,
        checked exactly against the basis before they are returned."""
        coords = [Fraction(0)] * len(self.admitted)
        if not any(u.values()):
            return coords
        wt = self.weight_of(u)
        if wt not in self.blocks:
            raise ValueError("vector lies outside the generated module")
        rows, ech, cols = self.blocks[wt]
        n = len(rows)
        tail = ech.reduce([u.get(r, 0) for r in rows] + [0] * n)[n:]
        for t, b in enumerate(cols):
            coords[b] = -tail[t]
        terms = [(self.basis[b], coords[b]) for b in cols if coords[b]]
        for r in rows:
            if sum(x * v.get(r, 0) for v, x in terms) != u.get(r, 0):
                raise CertificateError("coordinate solve failed verification")
        return coords

    def eval_columns(self, elem, point):
        """Model-space images {index: coeff} of the admitted basis vectors
        under a PBW element, with center coefficients taken at point."""
        assert isinstance(elem, PBWElement)
        out = [{} for _ in self.basis]
        for exps, p in elem.terms.items():
            c = p.const_value() if p.is_const() else poly_eval(p, point)
            if not c:
                continue
            img = [col.items() for col in self.rep.mono_image(exps)]
            for col, v in zip(out, self.basis):
                for dst, x in _apply(img, v).items():
                    col[dst] = col.get(dst, 0) + c * x
        return [{d: x for d, x in col.items() if x} for col in out]


_IRREP_CACHE = {}


def sl3_irrep(w):
    """The irreducible sl3 representation of highest weight w = (m1, m2).

    Refuses construction when the final matrices would exceed MAX_ENTRIES
    entries each (the classical dimension count serves as the size estimate).
    """
    m1, m2 = int(w[0]), int(w[1])
    assert m1 >= 0 and m2 >= 0
    key = (m1, m2)
    if key in _IRREP_CACHE:
        return _IRREP_CACHE[key]
    est = classical_dim(m1, m2)
    if est * est > MAX_ENTRIES:
        raise ValueError(
            f"weight ({m1}, {m2}) needs {est}x{est} matrices "
            f"({est * est} entries > cap {MAX_ENTRIES})")
    model = Sl3Model(m1, m2)
    D = model.close()
    A = model.rep.algebra
    action = {g: [enumerate(model.coords_of(_apply(model.rep.action[g], v)))
                  for v in model.basis]
              for g in A.gens}
    R = RepMatrices(A, D, action, f"pi_{m1}_{m2}",
                    center_point=(d2_scalar(m1, m2), d3_scalar(m1, m2)))
    R._model = model
    _IRREP_CACHE[key] = R
    return R


def lemma_action(gen, tri, w):
    """Closed-form action of one generator on a lowering-basis vector.

    Valid when m1 and m2 are at least i+j+k+1.  Returns a dict mapping index
    triples to coefficients; terms with negative indices or zero coefficient
    are dropped.
    """
    i, j, k = tri
    m1, m2 = int(w[0]), int(w[1])
    out = {}

    def put(t, c):
        if c and min(t) >= 0:
            out[t] = out.get(t, Fraction(0)) + Fraction(c)

    if gen == "H1":
        put((i, j, k), m1 - 2 * i + j - k)
    elif gen == "H2":
        put((i, j, k), m2 + i - 2 * j - k)
    elif gen == "Y1":
        put((i + 1, j, k), 1)
    elif gen == "Y2":
        put((i, j + 1, k), 1)
        put((i - 1, j, k + 1), i)
    elif gen == "Y3":
        put((i, j, k + 1), 1)
    elif gen == "X1":
        put((i - 1, j, k), i * (m1 - i + 1 + j - k))
        put((i, j + 1, k - 1), -k)
    elif gen == "X2":
        put((i, j - 1, k), j * (m2 - j + 1))
        put((i + 1, j, k - 1), k)
    elif gen == "X3":
        put((i - 1, j - 1, k), -i * j * (m2 - j + 1))
        put((i, j, k - 1), k * (m1 + m2 + 1 - j - i - k))
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return out


def lemma_agreement(R, tri, gen):
    """True when the closed-form action matches the model on one vector."""
    model = R._model
    lhs = _apply(model.rep.action[gen], model.lowering_vector(tri))
    rhs = {}
    for t2, c in lemma_action(gen, tri, (model.m1, model.m2)).items():
        for idx, x in model.lowering_vector(t2).items():
            rhs[idx] = rhs.get(idx, 0) + c * x
    return lhs == {idx: x for idx, x in rhs.items() if x}


def lowering_independence(w, d):
    """Rank evidence that the lowering vectors of total degree at most d are
    independent (needs m1, m2 >= d for the guarantee)."""
    R = sl3_irrep(w)
    model = R._model
    tris = [(i, j, k)
            for s in range(d + 1)
            for i in range(s + 1)
            for j in range(s + 1 - i)
            for k in [s - i - j]]
    ech = RatEchelon(model.N)
    for tri in tris:
        v = model.lowering_vector(tri)
        ech.add([Fraction(v.get(i, 0)) for i in range(model.N)])
    return ech.rank == len(tris), {"count": len(tris), "rank": ech.rank}
