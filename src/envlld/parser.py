"""Surface syntax for algebra elements, and canonical printing.

Grammar, whitespace insensitive:

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ('^' nat)?
    atom   := scalar | symbol | '(' expr ')'
    scalar := nat ('/' nat)?

Juxtaposition multiplies, so "CX^2" reads as C * X^2 and keeps the
noncommutative factor order.  Symbols are the generators of the selected
algebra together with its center variables, plus I for the unit.  The
optional leading sign is a small extension so "-X" is typable without a
zero term in front.  Parentheses nest at most MAX_NESTING deep.

Printing goes the other way.  format_expr emits text whose parse
reproduces the element exactly, with PBW monomials in graded order and
decomposition coefficients printed largest center degree first.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import FreeElement, PBWElement
from .center import CenterDecomposition
from .centerpoly import grlex_key


class ParseError(ValueError):
    """Malformed input; pos is a 0-based character offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# the parser recurses four frames per parenthesis level
MAX_NESTING = 100

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z]\d*)|(?P<op>[-+*^()/])")


def _tokenize(text):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks, algebra):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.A = algebra

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self):
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        e = self.term()
        if sign < 0:
            e = -e
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                e = e - t if val == "-" else e + t
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                e = e * self.factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # juxtaposition
                e = e * self.factor()
            else:
                return e

    def factor(self):
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a natural number", pos)
            self.take()
            e = e ** int(val)
        return e

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, pos3 = self.take()
                if kind3 != "num":
                    raise ParseError("expected digits after /", pos3)
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return self.A.free_const(Fraction(num, den))
            return self.A.free_const(Fraction(num))
        if kind == "name":
            if val == "I":
                return self.A.free_const(Fraction(1))
            if val in self.A.index:
                return self.A.free_word(val)
            raise ParseError(f"unknown symbol {val!r} for {self.A.name}", pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos)
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            kind2, val2, pos2 = self.take()
            if not (kind2 == "op" and val2 == ")"):
                raise ParseError("expected ')'", pos2)
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def parse_expr(text, algebra):
    """Parse text to a FreeElement of the given algebra.

    Center variables are ordinary letters here; they become polynomial
    coefficients once the result is put in normal form.
    """
    p = _Parser(_tokenize(text), algebra)
    e = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return e


def _mono_str(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p, names=None):
    """Canonical text of a center polynomial, terms in graded order."""
    if p.is_zero():
        return "0"
    if names is None:
        names = ("C",) if p.arity == 1 else ("Z2", "Z3")
    pieces = []
    for exps, c in p.sorted_terms():
        m = _mono_str(names, exps)
        ac = abs(c)
        if not m:
            body = str(ac)
        elif ac == 1:
            body = m
        else:
            body = f"{ac}*{m}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def _term_body(poly, gmono, cnames):
    """Render coefficient * generator-monomial as (negative, body)."""
    terms = poly.sorted_terms()
    if len(terms) == 1:
        (cexps, c), = terms
        cm = _mono_str(cnames, cexps)
        ac = abs(c)
        parts = []
        if ac != 1 or (not cm and not gmono):
            s = str(ac)
            if ac.denominator != 1 and (cm or gmono):
                s = f"({s})"
            parts.append(s)
        if cm:
            parts.append(cm)
        if gmono:
            parts.append(gmono)
        return c < 0, "*".join(parts)
    body = f"({format_poly(poly, cnames)})"
    if gmono:
        body = f"{body}*{gmono}"
    return False, body


def _join(pieces):
    out = []
    for neg, body in pieces:
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def format_element(e):
    """Canonical text of a PBW normal form, monomials in graded order."""
    A = e.algebra
    monos = e.monomials()
    if not monos:
        return "0"
    return _join(_term_body(e.coeff(m), _mono_str(A.gens, m), A.center)
                 for m in monos)


def format_decomposition(d):
    """Text of a decomposition, coefficients by descending center degree."""
    A = d.algebra
    items = sorted(d.terms.items(),
                   key=lambda kv: (kv[1].degree(), grlex_key(kv[0])),
                   reverse=True)
    if not items:
        return "0"
    return _join(_term_body(poly, _mono_str(A.gens, mono), A.center)
                 for mono, poly in items)


def format_expr(e):
    """Print a PBWElement or a CenterDecomposition canonically."""
    if isinstance(e, CenterDecomposition):
        return format_decomposition(e)
    if isinstance(e, PBWElement):
        return format_element(e)
    if isinstance(e, FreeElement):
        raise TypeError("free elements have no canonical text; "
                        "normalize first")
    raise TypeError(f"cannot format {type(e).__name__}")
