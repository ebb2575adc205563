"""Irreducible sl3 representations built from a two-factor polynomial model.

The highest weight (m1, m2) module sits inside Sym^m1(C^3) (x) Sym^m2(C^3).
The first factor carries the defining action; the second carries the dual
action written in the flipped basis (e3, -e2, e1), which makes both factors
act by integer derivation operators.  Starting from x1^m1 (x) u1^m2, the
lowering monomials Y1^i Y2^j Y3^k are applied in lexicographic (i+j+k, i, j)
order and a vector is admitted exactly when it enlarges the span.  Every
generated vector is weight homogeneous, so admission and coordinate solves
run blockwise per weight: one rational echelon per weight, whose rows carry
an identity tail, both admits vectors and reads off coordinates.  The sparse
action of each generator on the admitted basis comes from those coordinates,
verified against the model action entry by entry, so an sl3 irreducible is
an ordinary RepMatrices and is evaluated through the same sparse monomial
images as every other module.
The model keeps its own monomial images (mono_columns, eval_columns) as an
independent cross-check in model space.

The closed-form single-generator action on the lowering basis (valid while
m1 and m2 exceed the total lowering degree) is available separately as
lemma_action for cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PBWElement, sl3
from .centerpoly import poly_eval
from .linalg import CertificateError, RatEchelon
from .reps import RepMatrices, d2_scalar, d3_scalar, mono_exps


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
    """Polynomial model of the (m1, m2) module with integer arithmetic."""

    def __init__(self, m1, m2):
        self.m1 = m1
        self.m2 = m2
        self.xmon = mono_exps(3, m1)
        self.umon = mono_exps(3, m2)
        self.xidx = {m: i for i, m in enumerate(self.xmon)}
        self.uidx = {m: i for i, m in enumerate(self.umon)}
        self.nu = len(self.umon)
        self.N = len(self.xmon) * self.nu
        A = sl3()
        self.algebra = A
        self.psi = {}
        for g in A.gens:
            Z = [[int(x) for x in row] for row in A.mats[g]]
            self.psi[g] = self._derivation_triples(Z, _dual_matrix(Z))
        self.wt1, self.wt2 = self._weights()
        start = [0] * self.N
        start[0] = 1  # x1^m1 (x) u1^m2: both factors list their top monomial first
        assert self.xmon[0] == (m1, 0, 0) and self.umon[0] == (m2, 0, 0)
        self.vmemo = {(0, 0, 0): start}
        self.admitted = None
        self.basis = None
        self.blocks = None
        self._mono_cols = {}

    def _derivation_triples(self, Z1, Z2):
        # full-model sparse action (dst, src, coeff) of one generator
        triples = []
        nu = self.nu
        for a, alpha in enumerate(self.xmon):
            for j in range(3):
                if not alpha[j]:
                    continue
                for i in range(3):
                    c = Z1[i][j]
                    if not c:
                        continue
                    beta = list(alpha)
                    beta[j] -= 1
                    beta[i] += 1
                    da = self.xidx[tuple(beta)]
                    w = alpha[j] * c
                    for b in range(nu):
                        triples.append((da * nu + b, a * nu + b, w))
        for b, beta in enumerate(self.umon):
            for j in range(3):
                if not beta[j]:
                    continue
                for i in range(3):
                    c = Z2[i][j]
                    if not c:
                        continue
                    gam = list(beta)
                    gam[j] -= 1
                    gam[i] += 1
                    db = self.uidx[tuple(gam)]
                    w = beta[j] * c
                    for a in range(len(self.xmon)):
                        triples.append((a * nu + db, a * nu + b, w))
        return tuple(triples)

    def _weights(self):
        wt1 = [0] * self.N
        wt2 = [0] * self.N
        for arr, g in ((wt1, "H1"), (wt2, "H2")):
            for dst, src, c in self.psi[g]:
                assert dst == src, "Cartan action is not diagonal on monomials"
                arr[dst] += c
        return wt1, wt2

    def apply_vec(self, g, v):
        out = [0] * self.N
        for dst, src, c in self.psi[g]:
            x = v[src]
            if x:
                out[dst] += c * x
        return out

    def apply_rows(self, g, rows):
        width = len(rows[0])
        out = [[0] * width for _ in range(self.N)]
        for dst, src, c in self.psi[g]:
            row = rows[src]
            tgt = out[dst]
            for t in range(width):
                x = row[t]
                if x:
                    tgt[t] += c * x
        return out

    def weight_of(self, v):
        wt = None
        for i, x in enumerate(v):
            if x:
                here = (self.wt1[i], self.wt2[i])
                if wt is None:
                    wt = here
                else:
                    assert here == wt, "generated vector is not weight homogeneous"
        return wt

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
        v = self.apply_vec(g, self.lowering_vector(parent))
        self.vmemo[tri] = v
        return v

    def close(self):
        """Admit lowering vectors in (i+j+k, i, j) order until a level dies.

        Each weight keeps one echelon of its admitted vectors (v | e_t), the
        t-th admitted vector of the weight with the t-th unit tail; it
        decides admission and gives coordinates (see coords_of).
        """
        weight_rows = {}
        for r in range(self.N):
            weight_rows.setdefault((self.wt1[r], self.wt2[r]), []).append(r)
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
                    if not any(v):
                        continue
                    found = True
                    wt = self.weight_of(v)
                    rows = weight_rows[wt]
                    n = len(rows)
                    ech, cols = blocks.setdefault(wt, (RatEchelon(2 * n), []))
                    red = ech.reduce([v[r] for r in rows] + [0] * n)
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
        if not any(u):
            return coords
        wt = self.weight_of(u)
        if wt not in self.blocks:
            raise ValueError("vector lies outside the generated module")
        rows, ech, cols = self.blocks[wt]
        n = len(rows)
        tail = ech.reduce([u[r] for r in rows] + [0] * n)[n:]
        for t, b in enumerate(cols):
            coords[b] = -tail[t]
        terms = [(self.basis[b], coords[b]) for b in cols if coords[b]]
        for r in rows:
            if sum(x * v[r] for v, x in terms) != u[r]:
                raise CertificateError("coordinate solve failed verification")
        return coords

    def mono_columns(self, exps):
        """Images of all admitted basis vectors under one ordered monomial,
        as rows over the model (one list of length D per model coordinate)."""
        hit = self._mono_cols.get(exps)
        if hit is not None:
            return hit
        if not any(exps):
            D = len(self.admitted)
            rows = [[self.basis[d][i] for d in range(D)] for i in range(self.N)]
        else:
            gi = next(i for i, e in enumerate(exps) if e)
            rest = list(exps)
            rest[gi] -= 1
            rows = self.apply_rows(self.algebra.gens[gi], self.mono_columns(tuple(rest)))
        self._mono_cols[exps] = rows
        return rows

    def eval_columns(self, elem, point):
        """Model-space images of the admitted basis under a PBW element."""
        assert isinstance(elem, PBWElement)
        D = len(self.admitted)
        out = [[Fraction(0)] * D for _ in range(self.N)]
        for exps, p in elem.terms.items():
            c = p.const_value() if p.is_const() else poly_eval(p, point)
            if not c:
                continue
            rows = self.mono_columns(exps)
            for i in range(self.N):
                row = rows[i]
                tgt = out[i]
                for t in range(D):
                    if row[t]:
                        tgt[t] += c * row[t]
        return out


_IRREP_CACHE = {}


def sl3_irrep(w, max_entries=20000):
    """The irreducible sl3 representation of highest weight w = (m1, m2).

    Refuses construction when the final matrices would exceed max_entries
    entries each (the classical dimension count serves as the size estimate).
    """
    m1, m2 = int(w[0]), int(w[1])
    assert m1 >= 0 and m2 >= 0
    key = (m1, m2, max_entries)
    if key in _IRREP_CACHE:
        return _IRREP_CACHE[key]
    est = classical_dim(m1, m2)
    if est * est > max_entries:
        raise ValueError(
            f"weight ({m1}, {m2}) needs {est}x{est} matrices "
            f"({est * est} entries > cap {max_entries})")
    model = Sl3Model(m1, m2)
    D = model.close()
    A = sl3()
    action = {g: [] for g in A.gens}
    for d in range(D):
        for g in A.gens:
            u = model.apply_vec(g, model.basis[d])
            action[g].append(enumerate(model.coords_of(u)))
    R = RepMatrices(A, D, action, f"pi_{m1}_{m2}",
                    center_point=(d2_scalar(m1, m2), d3_scalar(m1, m2)),
                    basis_meta=model.admitted)
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
    lhs = model.apply_vec(gen, model.lowering_vector(tri))
    rhs = [Fraction(0)] * model.N
    for t2, c in lemma_action(gen, tri, (model.m1, model.m2)).items():
        v = model.lowering_vector(t2)
        for idx in range(model.N):
            if v[idx]:
                rhs[idx] += c * v[idx]
    return all(Fraction(a) == b for a, b in zip(lhs, rhs))


def lowering_independence(w, d, max_entries=20000):
    """Rank evidence that the lowering vectors of total degree at most d are
    independent (needs m1, m2 >= d for the guarantee)."""
    R = sl3_irrep(w, max_entries)
    model = R._model
    tris = [(i, j, k)
            for s in range(d + 1)
            for i in range(s + 1)
            for j in range(s + 1 - i)
            for k in [s - i - j]]
    ech = RatEchelon(model.N)
    for tri in tris:
        ech.add([Fraction(x) for x in model.lowering_vector(tri)])
    return ech.rank == len(tris), {"count": len(tris), "rank": ech.rank}
