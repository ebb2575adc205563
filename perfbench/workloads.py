"""Seeded request generators for the three benchmark workloads.

Every request is text, printed through envlld's canonical format_expr and
format_poly, exactly as a user would pass it to an `envlld` subcommand.  The
generators build PBW elements and center polynomials only through their
constructors, which touch no memo cache, so generating a request never warms
the caches the request itself will read.

A request also carries what the generator knows about it (`planted`), which
the correctness checks use and the program never sees.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from envlld.algebra import sl2, sl3
from envlld.center import casimir_elements
from envlld.centerpoly import CenterPoly
from envlld.parser import format_expr, format_poly

# sl3 weights of the evidence rank sweep; the checker builds each of these
# modules on its own (defining, dual, adjoint, symmetric square and its dual)
SL3_SWEEP_WEIGHTS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
SL2_SWEEP_TOP = 8          # rank sweeps run over rho_2 .. rho_8, as `decide loc`
REF_SAMPLES = 4            # random vectors per module in `decide ref`


@dataclass(frozen=True)
class Request:
    kind: str
    algebra: str
    exprs: tuple
    q: str | None = None
    planted: bool = False
    params: dict = field(default_factory=dict)


def _rat(rng, num=5, den=3):
    while True:
        c = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if c:
            return c


def _center_poly(rng, arity, degree):
    """A center polynomial with a nonzero constant term and, when degree is
    positive, one random term of that degree."""
    terms = {(0,) * arity: _rat(rng, 4, 2)}
    if degree:
        exps = [0] * arity
        for _ in range(degree):
            exps[rng.randrange(arity)] += 1
        terms[tuple(exps)] = _rat(rng, 4, 2)
    return CenterPoly(arity, terms)


def _element(rng, A, degree, nterms, center_degree):
    """A random PBW element of fixed shape: nterms distinct monomials, the
    first two of degree `degree` and the rest of random lower degree, with
    center coefficients of degree center_degree on every other monomial."""
    terms = {}
    while len(terms) < nterms:
        d = degree if len(terms) < 2 else rng.randint(0, degree - 1)
        exps = [0] * A.ngens
        for _ in range(d):
            exps[rng.randrange(A.ngens)] += 1
        exps = tuple(exps)
        if exps in terms:
            continue
        cdeg = center_degree if len(terms) % 2 == 0 else 0
        terms[exps] = _center_poly(rng, A.center_arity, cdeg)
    e = A.pbw_zero()
    for exps, c in terms.items():
        e = e + A.pbw_mono(exps, c)
    return e


def _paren(text):
    return f"({text})"


def _product_text(rng, A, degree, nterms, center_degree):
    """Text of a product of two random elements: dense after normal form."""
    a = _element(rng, A, degree, nterms, center_degree)
    b = _element(rng, A, degree, nterms, center_degree)
    return f"{_paren(format_expr(a))}*{_paren(format_expr(b))}"


@functools.cache
def _casimir_text():
    # set-up has already built this element, so printing it warms no cache
    return _paren(format_expr(casimir_elements("sl2")["C"]))


def _combination_text(rng, A, texts, center_degree, expand_first=False):
    """Text of sum z_i * t_i with random center polynomials z_i.

    With expand_first the first z_i is written with C replaced by its
    defining element, so the dependence holds only through the center
    relation and the decider must rewrite to see it.
    """
    parts = []
    for i, t in enumerate(texts):
        z = format_poly(_center_poly(rng, A.center_arity, center_degree), A.center)
        if expand_first and i == 0:
            z = z.replace("C", _casimir_text())
        parts.append(f"{_paren(z)}*{_paren(t)}")
    return " + ".join(parts)


def _family(rng, A, k, degree, nterms, center_degree, plant):
    """k product texts; when plant is set one of them is a combination of
    the others, so the family is dependent.  In sl2 families that combination
    hides one center symbol in its defining element; in sl3 the same
    substitution makes a single request take seconds, so it is not done."""
    texts = [_product_text(rng, A, degree, nterms, center_degree)
             for _ in range(k)]
    if plant:
        at = rng.randrange(k)
        others = texts[:at] + texts[at + 1:]
        texts[at] = _combination_text(rng, A, others, center_degree,
                                      expand_first=A.name == "sl2")
    return tuple(texts)


# Each workload serves rounds of a fixed slot list in a seeded order, so every
# run sees the same mix of request shapes and only the random contents differ
# between seeds.  A slot with a plant flag is planted in every other round.

# -- decide_mix -------------------------------------------------------------

# (kind, algebra, family size).  The largest sl2 family goes to decide c,
# and decide c skips pairs: an sl2 family of 8 over the center takes up to
# 0.7 s and a pair over Q a few ms, and these two slots made most of the
# difference in p90 and req_per_s between seeds.
DECIDE_ROUND = (
    *(("decide_center", "sl2", k) for k in range(2, 8)),
    *(("decide_c", "sl2", k) for k in range(3, 9)),
    *(("decide_loc", "sl2", k) for k in range(2, 4)),
    *(("decide_center", "sl3", k) for k in range(2, 6)),
    *(("decide_c", "sl3", k) for k in range(3, 6)),
    *(("decide_loc", "sl3", k) for k in range(2, 5)),
)


def _decide_mix(rng, slot, plant):
    kind, name, k = slot
    A = sl2() if name == "sl2" else sl3()
    degree, nterms = (3, 5) if name == "sl2" else (2, 4)
    center_degree = 0 if kind == "decide_c" else 1
    if kind != "decide_loc":
        exprs = _family(rng, A, k, degree, nterms, center_degree, plant)
        return Request(kind, name, exprs, planted=plant)
    # z0 q = sum z_i p_i: p_1 is built from q so that the span certificate
    # needs the denominator z0
    exprs = list(_family(rng, A, k, degree, nterms, 1, False))
    q = _product_text(rng, A, degree, nterms, 1)
    if plant:
        z0 = _center_poly(rng, A.center_arity, 1)
        rest = _combination_text(rng, A, exprs[1:], 1)
        exprs[0] = f"{_paren(format_poly(z0, A.center))}*{_paren(q)} - ({rest})"
    return Request(kind, name, tuple(exprs), q=q, planted=plant)


# -- evidence_sweep ---------------------------------------------------------

EVIDENCE_ROUND = (
    *(("witness", "sl2", k) for k in (2, 3, 4)),
    *(("decide_ref", "sl2", k) for k in (2, 3)),
    *(("rank_sweep", "sl2", k) for k in (2, 3, 4, 5)),
    *(("rank_sweep", "sl3", k) for k in (2, 3, 4, 5)),
    *(("duality", "sl2", k) for k in (2, 3, 4)),
)


def _evidence_sweep(rng, slot, plant):
    kind, name, k = slot
    A = sl2() if name == "sl2" else sl3()
    if kind == "witness":
        # the witness exists only for independent families
        exprs = _family(rng, A, k, 1, 3, 1, False)
        return Request(kind, name, exprs)
    if kind == "rank_sweep":
        exprs = _family(rng, A, k, 1, 3, 1, plant)
        reps = (tuple(range(2, SL2_SWEEP_TOP + 1)) if name == "sl2"
                else SL3_SWEEP_WEIGHTS)
        return Request(kind, name, exprs, planted=plant, params={"reps": reps})
    exprs = tuple(format_expr(_element(rng, A, 2, 4, 1)) for _ in range(k))
    if kind == "decide_ref":
        q = (_combination_text(rng, A, exprs, 1) if plant
             else format_expr(_element(rng, A, 2, 4, 1)))
        return Request(kind, name, exprs, q=q, planted=plant,
                       params={"samples": REF_SAMPLES, "seed": rng.randrange(1000)})
    q = (_combination_text(rng, A, exprs, 0) if plant
         else format_expr(_element(rng, A, 2, 4, 1)))
    return Request(kind, name, exprs, q=q, planted=plant,
                   params={"rep": rng.randint(2, 4)})


# -- expand_text ------------------------------------------------------------

def _linear_sum(rng, A):
    """Text of a random combination of one Y, one X and one H generator, such
    as X+Y+H or Y1+X2+H1.  Any three of the eight sl3 generators would do,
    but the cost of a power then depends on which pairs commute, and the
    median latency moved by a tenth from seed to seed."""
    e = A.pbw_zero()
    for kind in "YXH":
        g = rng.choice([g for g in A.gens if g[0] == kind])
        e = e + A.pbw_gen(g).scale(_rat(rng, 3, 2))
    return format_expr(e)


def _power_text(rng, A, powers):
    """Product of powers of random three-term sums, such as (X+Y+H)^7 or
    (Y1+X1+H1)^5 (Y2+X2+H2)^3: 3^(sum of powers) free words to rewrite."""
    return "*".join(f"({_linear_sum(rng, A)})^{k}" for k in powers)


# (kind, algebra, powers).  A "repeat" slot resends a random earlier nf
# request of its algebra, so a round always holds 2 decompose, 7 sl3 nf and 4
# sl2 nf requests (the median lands inside the sl3 group and p90 inside the
# slower sl2 group, instead of on the edge between them).  sl2 has three
# generators, so its words soon repeat and its nf cache saturates; sl3 sums
# draw from 3 Y, 3 X and 2 H generators and keep writing new words.
EXPAND_ROUND = (
    ("nf", "sl2", (7,)), ("nf", "sl2", (4, 3)), ("nf", "sl2", (3, 2, 2)),
    ("nf", "sl3", (6,)), ("nf", "sl3", (4, 2)), ("nf", "sl3", (3, 3)),
    ("nf", "sl3", (2, 2, 2)),
    ("decompose", "sl2", (5,)), ("decompose", "sl3", (3, 2)),
    ("repeat", "sl2", ()), *(("repeat", "sl3", ()),) * 3,
)


def _expand_text(rng, slot, plant, history):
    kind, name, powers = slot
    if kind == "repeat":
        return rng.choice(history[name])
    A = sl2() if name == "sl2" else sl3()
    req = Request(kind, name, (_power_text(rng, A, powers),))
    if kind == "nf":
        history[name].append(req)
    return req


# -- streams ----------------------------------------------------------------

_ROUNDS = {"decide_mix": (DECIDE_ROUND, _decide_mix),
           "evidence_sweep": (EVIDENCE_ROUND, _evidence_sweep),
           "expand_text": (EXPAND_ROUND, _expand_text)}


def request_stream(workload, seed):
    """Endless deterministic stream of requests for one workload and seed.

    decide_mix and evidence_sweep never repeat an input; expand_text resends
    an earlier expression in a fixed share of its slots.
    """
    slots, make = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    history = {"sl2": [], "sl3": []}
    seen = set()
    for rnd in itertools.count():
        order = list(range(len(slots)))
        rng.shuffle(order)
        if workload == "expand_text":
            # repeats go after the round's fresh expressions
            order.sort(key=lambda i: slots[i][0] == "repeat")
            for i in order:
                yield make(rng, slots[i], False, history)
            continue
        for i in order:
            while True:
                req = make(rng, slots[i], (i + rnd) % 2 == 0)
                key = (req.exprs, req.q)
                if key not in seen:
                    break
            seen.add(key)
            yield req
