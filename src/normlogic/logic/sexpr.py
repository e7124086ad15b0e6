"""Concrete syntax: parenthesized prefix notation with sorted binders.

Grammar (one formula per file; whitespace separates tokens):

    formula  := (= s s) | (<= s s) | (< s s) | (veq v v)
              | (not f) | (and f ...) | (or f ...) | (=> f f)
              | (forall (binding ...) f) | (exists (binding ...) f)
    binding  := (name vec) | (name scalar)
    s        := name | rational | (+ s s) | (neg s) | (norm v)
    v        := name | 0v | (vadd v v) | (vneg v) | (vscale rational v)
    rational := integer | numerator/denominator

Printing is deterministic and parse(print(f)) is f: the AST is interned,
so parsing a printed sentence returns the very nodes it was printed from
while they live.  The printer prints each distinct node once per call, and
the parser reads each distinct atom once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from ..errors import ParseError
from .ast import (FORMULA_NODES, KID_SORT, SCALAR_NODES, VECTOR_NODES, And,
                  Eq, Exists, Forall, Formula, Implies, Le, Lt, Not, Or, SAdd,
                  SConst, SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar, VZero,
                  VecEq)

_NUMBER = re.compile(r"-?\d+(/\d+)?$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*$")


# -- printing ---------------------------------------------------------------

_HEAD = {VAdd: "vadd", VNeg: "vneg", VScale: "vscale", SNorm: "norm",
         SAdd: "+", SNeg: "neg", Eq: "=", Le: "<=", Lt: "<", VecEq: "veq",
         Not: "not", And: "and", Or: "or", Implies: "=>", Forall: "forall",
         Exists: "exists"}


def print_vector(t) -> str:
    return _print(t, VECTOR_NODES, "vector term")


def print_scalar(t) -> str:
    return _print(t, SCALAR_NODES, "scalar term")


def print_sentence(f: Formula) -> str:
    return _print(f, FORMULA_NODES, "formula")


def _print(node, sort, what) -> str:
    if not isinstance(node, sort):
        raise TypeError(f"not a {what}: {node!r}")
    return _text(node, {})


def _text(node, memo) -> str:
    """The text of node.  A shared subterm is printed once per call and its
    text reused at every occurrence, through memo."""
    text = memo.get(node)
    if text is not None:
        return text
    cls = type(node)
    if cls is VVar or cls is SVar:
        text = node.name
    elif cls is VZero:
        text = "0v"
    elif cls is SConst:
        text = str(node.value)
    else:
        sort, what = KID_SORT[cls]
        parts = [_HEAD[cls]]
        if cls is VScale:
            parts.append(str(node.coeff))
        elif cls is Forall or cls is Exists:
            parts.append("(" + " ".join(f"({n} {s})" for n, s in node.vars)
                         + ")")
        for kid in node._kids:
            if not isinstance(kid, sort):
                raise TypeError(f"not a {what}: {kid!r}")
            parts.append(_text(kid, memo))
        text = "(" + " ".join(parts) + ")"
    memo[node] = text
    return text


# -- tokenizing ---------------------------------------------------------------

#: one match per token or comment; whitespace is skipped, and \s is
#: exactly str.isspace
_TOKEN = re.compile(r"(\()|(\))|([^\s();]+)|;[^\n]*")
_KINDS = (None, "open", "close", "atom")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, offset) of each token: "open", "close" or "atom"."""
    return [(_KINDS[m.lastindex], m[0], m.start())
            for m in _TOKEN.finditer(text) if m.lastindex]


def _scalar_atom(value: str, offset: int):
    if _NUMBER.match(value):
        return SConst(Fraction(value))
    if _NAME.match(value):
        return SVar(value)
    raise ParseError(f"bad scalar atom {value!r}", offset)


def _vector_atom(value: str, offset: int):
    if value == "0v":
        return VZero()
    if _NUMBER.match(value):
        raise ParseError("number in vector position", offset)
    if _NAME.match(value):
        return VVar(value)
    raise ParseError(f"bad vector atom {value!r}", offset)


def _coefficient(value: str, offset: int) -> Fraction:
    if not _NUMBER.match(value):
        raise ParseError("expected a rational coefficient", offset)
    return Fraction(value)


class _Parser:
    """Recursive descent over the token list.  Reading past its end raises
    IndexError, which parse_sentence reports as the end of the input."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        #: (reader, atom) -> what the reader made of it; an atom repeats
        #: throughout a sentence, and is read once
        self.atoms = {}

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str):
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def _open(self, kind: str, value: str, offset: int) -> Tuple[str, int]:
        """The operator after an open token, given that token."""
        if kind != "open":
            raise ParseError(f"expected 'open', got {value!r}", offset)
        kind, value, offset = self._next()
        if kind != "atom":
            raise ParseError("expected an operator symbol", offset)
        return value, offset

    def _atom(self, read, value: str, offset: int):
        key = (read, value)
        node = self.atoms.get(key)
        if node is None:
            node = self.atoms[key] = read(value, offset)
        return node

    def formula(self) -> Formula:
        head, offset = self._open(*self._next())
        if head == "=":
            f = Eq(self.scalar(), self.scalar())
        elif head == "<=":
            f = Le(self.scalar(), self.scalar())
        elif head == "<":
            f = Lt(self.scalar(), self.scalar())
        elif head == "veq":
            f = VecEq(self.vector(), self.vector())
        elif head == "not":
            f = Not(self.formula())
        elif head == "and":
            return And(self._formula_list())
        elif head == "or":
            return Or(self._formula_list())
        elif head == "=>":
            f = Implies(self.formula(), self.formula())
        elif head in ("forall", "exists"):
            binds = self._bindings()
            body = self.formula()
            cls = Forall if head == "forall" else Exists
            f = cls(binds, body)
        else:
            raise ParseError(f"unknown operator {head!r}", offset)
        self._expect("close")
        return f

    def _formula_list(self) -> tuple:
        out = []
        while self.tokens[self.pos][0] != "close":
            out.append(self.formula())
        self.pos += 1
        return tuple(out)

    def _bindings(self):
        self._expect("open")
        binds = []
        while self.tokens[self.pos][0] != "close":
            self._expect("open")
            kind, name, off = self._next()
            if kind != "atom" or not _NAME.match(name):
                raise ParseError("expected a variable name", off)
            kind, sort, off = self._next()
            if sort not in ("vec", "scalar"):
                raise ParseError(f"unknown sort {sort!r}", off)
            self._expect("close")
            binds.append((name, sort))
        self.pos += 1
        return tuple(binds)

    def scalar(self):
        kind, value, offset = self._next()
        if kind == "atom":
            return self._atom(_scalar_atom, value, offset)
        head, offset = self._open(kind, value, offset)
        if head == "+":
            t = SAdd(self.scalar(), self.scalar())
        elif head == "neg":
            t = SNeg(self.scalar())
        elif head == "norm":
            t = SNorm(self.vector())
        else:
            raise ParseError(f"unknown scalar operator {head!r}", offset)
        self._expect("close")
        return t

    def vector(self):
        kind, value, offset = self._next()
        if kind == "atom":
            return self._atom(_vector_atom, value, offset)
        head, offset = self._open(kind, value, offset)
        if head == "vadd":
            t = VAdd(self.vector(), self.vector())
        elif head == "vneg":
            t = VNeg(self.vector())
        elif head == "vscale":
            kind, coeff, off = self._next()
            if kind != "atom":
                raise ParseError("expected a rational coefficient", off)
            t = VScale(self._atom(_coefficient, coeff, off), self.vector())
        else:
            raise ParseError(f"unknown vector operator {head!r}", offset)
        self._expect("close")
        return t


def parse_sentence(text: str) -> Formula:
    parser = _Parser(text)
    try:
        f = parser.formula()
    except IndexError:
        raise ParseError("unexpected end of input", len(text)) from None
    if parser.pos < len(parser.tokens):
        tok = parser.tokens[parser.pos]
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f
