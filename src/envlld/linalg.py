"""Exact linear algebra: fraction-free over Q[C] and Q[Z2, Z3], reduced over Q.

Matrices of center polynomials go through one-step Bareiss elimination, which
keeps every intermediate entry polynomial: the update
(piv*a_ij - c_i*a_kj) / prev_pivot divides exactly at each step, and divexact
raises ValueError if it does not.  Pivots are chosen by lowest total degree
with deterministic ties (pivot columns are tracked through a virtual column
permutation, no data is moved), so results are reproducible across runs.
Each kernel vector puts the last pivot at its free column and 0 at the other
free columns; by Cramer's rule its entries are then r x r minors of M, so
back-substitution divides exactly by each pivot.  The vector is then
content-normalized.

ff_rank_kernel decides at a fixed probe point first (PROBE_POINT: C = 7/3,
or (Z2, Z3) = (7/3, -5/2)).  The rows of M, evaluated there, go into a
RatEchelon, and the rows that raise its rank are kept.
  * Point rank = number of columns: a maximal minor of M is nonzero at the
    point, so it is a nonzero polynomial and M has full column rank.  The
    kernel is empty and no Bareiss runs.
  * Point rank = columns - 1: Bareiss runs on the kept rows only.  Their
    kernel is one line, and it is ker(M) exactly when its vector annihilates
    every other row of M, which is checked exactly.  content_normalize makes
    a line canonical, so the vector is the one Bareiss on all of M gives.
  * A lower point rank, or a failed check (the point was unlucky): Bareiss
    runs on all of M.  The probe never stands in for a kernel of dimension
    two or more, whose first vector depends on the pivot columns chosen.

Everything over Q goes through one routine, RatEchelon: an incremental
reduced row echelon form that answers rank, span membership and null space.
A solve or a change of coordinates is a kernel or a reduction of an
augmented row, so there is no separate solver or inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .centerpoly import (CenterPoly, as_rat, content_normalize, divexact,
                         poly_eval)

# where ff_rank_kernel decides first, by center arity; any point would be
# sound, since the fallback is exact
PROBE_POINT = {1: (Fraction(7, 3),), 2: (Fraction(7, 3), Fraction(-5, 2))}


class PolyMatrix:
    """Dense matrix of CenterPoly entries of one arity."""

    __slots__ = ("arity", "rows", "cols", "entries")

    def __init__(self, arity, rows, cols, entries):
        assert rows >= 0 and cols >= 0
        entries = tuple(tuple(r) for r in entries)
        assert len(entries) == rows
        for r in entries:
            assert len(r) == cols
            for e in r:
                assert isinstance(e, CenterPoly) and e.arity == arity
        self.arity = arity
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, arity={self.arity})"


@dataclass(frozen=True)
class EliminationResult:
    rank: int
    kernel_basis: tuple


def _pivot_key(entry, i, j):
    # lowest total degree first; ties by canonical term list, then position
    return (entry.degree(), entry.sort_key(), i, j)


def _dot(row, v):
    acc = CenterPoly.zero(row[0].arity)
    for a, b in zip(row, v):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def ff_rank_kernel(M):
    """Rank and right-kernel basis of M by fraction-free elimination.

    Kernel vectors are content-normalized, one per non-pivot column, and each
    satisfies M v = 0 exactly.  A probe point settles full column rank, and
    picks the rows of a corank-one minor (see the module docstring).
    """
    ncols = M.cols
    point = PROBE_POINT[M.arity]
    ech = RatEchelon(ncols)
    kept, rest = [], []
    for row in M.entries:
        if ech.rank < ncols and ech.add([poly_eval(e, point) for e in row]):
            kept.append(row)
        else:
            rest.append(row)
    if ech.rank == ncols:
        return EliminationResult(ncols, ())
    if ech.rank == ncols - 1:
        res = _bareiss(M.arity, kept, ncols)
        if all(_dot(row, res.kernel_basis[0]).is_zero() for row in rest):
            return res
    return _bareiss(M.arity, M.entries, ncols)


def _bareiss(arity, entries, ncols):
    """Rank and content-normalized kernel basis of the given rows."""
    rows = [list(r) for r in entries]
    nrows = len(rows)
    pivot_cols = []
    prev = CenterPoly.const(arity, 1)
    r = 0
    while r < nrows:
        best = None
        for i in range(r, nrows):
            for j in range(ncols):
                if j in pivot_cols:
                    continue
                e = rows[i][j]
                if e.is_zero():
                    continue
                key = _pivot_key(e, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        rows[r], rows[pi] = rows[pi], rows[r]
        piv = rows[r][pj]
        for i in range(r + 1, nrows):
            ci = rows[i][pj]
            for j in range(ncols):
                new = piv * rows[i][j] - ci * rows[r][j]
                rows[i][j] = divexact(new, prev)
        pivot_cols.append(pj)
        prev = piv
        r += 1
    rank = r

    zero = CenterPoly.zero(arity)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [zero] * ncols
        v[f] = prev
        for t in range(rank - 1, -1, -1):
            p = pivot_cols[t]
            v[p] = divexact(-_dot(rows[t], v), rows[t][p])
        basis.append(content_normalize(v))
    return EliminationResult(rank, tuple(basis))


def solve_fraction_field(M, b):
    """Solve M z = z0 * b exactly over Q[center] with z0 nonzero.

    Returns (z0, z) jointly content-normalized, or None when b is not in the
    column span of M over the fraction field.  Works by extracting a kernel
    vector of [M | -b] whose last coordinate is nonzero.
    """
    assert len(b) == M.rows
    aug = [list(row) + [-bi] for row, bi in zip(M.entries, b)]
    res = ff_rank_kernel(PolyMatrix(M.arity, M.rows, M.cols + 1, aug))
    for v in res.kernel_basis:
        if not v[-1].is_zero():
            vec = content_normalize([v[-1], *v[:-1]])
            return vec[0], tuple(vec[1:])
    return None


class CertificateError(RuntimeError):
    """Raised when a certificate fails the check that must pass before it
    is reported; an explicit raise, so the check also runs under -O."""


class RatEchelon:
    """Incremental reduced row echelon form over Q of the inserted rows.

    Stored rows are kept reduced against every pivot.  So when independent
    u_t were inserted as (u_t | e_t), reducing (vec | 0) leaves
    (residue | -x) with vec = sum x_t u_t + residue: an identity tail reads
    off coordinates.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = [as_rat(a) for a in vec]
        assert len(v) == self.width
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec if independent of the span so far; True if rank grew."""
        v = self.reduce(vec)
        p = next((i for i, a in enumerate(v) if a), None)
        if p is None:
            return False
        inv = Fraction(1) / v[p]
        v = [a * inv for a in v]
        # keep stored rows reduced against the new pivot
        for k, row in enumerate(self.rows):
            c = row[p]
            if c:
                self.rows[k] = [a - c * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def contains(self, vec):
        return all(a == 0 for a in self.reduce(vec))

    @property
    def rank(self):
        return len(self.rows)

    def kernel(self):
        """Null space of the inserted rows: one vector per non-pivot column,
        in increasing column order, with a 1 in that column and 0 in the
        other non-pivot columns."""
        pivots = set(self.pivots)
        basis = []
        for f in range(self.width):
            if f in pivots:
                continue
            v = [Fraction(0)] * self.width
            v[f] = Fraction(1)
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis
