"""Quantifier-free arithmetic over the naturals: syntax, parsing, evaluation.

Grammar (infix, case-sensitive keywords):

    formula := conj ('or' conj)*
    conj    := lit ('and' lit)*
    lit     := 'not' lit | '(' formula ')' | sum ('=' | '<=' | '<') sum
    sum     := product ('+' product)*
    product := atom ('*' atom)*
    atom    := variable | literal | '(' sum ')'

Variables are x1, x2, ...; literals are non-negative integers.  The strict
comparison a < b is an extension desugared at parse time to a <= b and not
a = b.

The walkers here and in ``flatten`` and ``compiler`` recurse once per
level of the syntax tree, and the parser three times per parenthesis, so
``parse_arith`` refuses, as parse errors, parentheses nested more than
``MAX_PARENS`` deep and a formula whose operators nest more than
``MAX_DEPTH`` deep, as ``nesting_depth`` measures it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..errors import ParseError


@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class ANat:
    value: int


@dataclass(frozen=True)
class AAdd:
    left: "ArithTerm"
    right: "ArithTerm"


@dataclass(frozen=True)
class AMul:
    left: "ArithTerm"
    right: "ArithTerm"


ArithTerm = Union[AVar, ANat, AAdd, AMul]


@dataclass(frozen=True)
class AEq:
    left: ArithTerm
    right: ArithTerm


@dataclass(frozen=True)
class ALe:
    left: ArithTerm
    right: ArithTerm


@dataclass(frozen=True)
class ANot:
    arg: "ArithFormula"


@dataclass(frozen=True)
class AAnd:
    left: "ArithFormula"
    right: "ArithFormula"


@dataclass(frozen=True)
class AOr:
    left: "ArithFormula"
    right: "ArithFormula"


ArithFormula = Union[AEq, ALe, ANot, AAnd, AOr]

_KEYWORDS = {"and", "or", "not"}
_VAR = re.compile(r"x[1-9][0-9]*$")

#: how many operators may nest inside one another.  Without products, a
#: formula nesting n deep compiles to a B nesting n + 3 deep, so a deeper
#: one compiles to nothing a sentence file may hold (``sexpr.MAX_DEPTH``).
MAX_DEPTH = 400

#: how many parentheses may nest: the parser takes three Python frames
#: for each, under a default recursion limit of 1,000.
MAX_PARENS = 200


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(x[0-9]+|and|or|not)|(<=|[()+*=<]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"bad token {stripped[0]!r}", off)
        num, word, sym = m.groups()
        off = m.end() - len((num or word or sym))
        if num is not None:
            tokens.append(("nat", num, off))
        elif word is not None:
            kind = "kw" if word in _KEYWORDS else "var"
            if kind == "var" and not _VAR.match(word):
                raise ParseError(f"bad variable {word!r} (use x1, x2, ...)",
                                 off)
            tokens.append((kind, word, off))
        else:
            tokens.append(("sym", sym, off))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        if self.pos >= len(self.tokens):
            return ("eof", "", len(self.text))
        return self.tokens[self.pos]

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _accept(self, kind, value=None):
        tok = self._peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return tok
        return None

    def formula(self) -> ArithFormula:
        f = self.conj()
        while self._accept("kw", "or"):
            f = AOr(f, self.conj())
        return f

    def conj(self) -> ArithFormula:
        f = self.lit()
        while self._accept("kw", "and"):
            f = AAnd(f, self.lit())
        return f

    def lit(self) -> ArithFormula:
        nots = 0
        while self._accept("kw", "not"):
            nots += 1
        if self._peek()[:2] == ("sym", "(") and self._formula_ahead():
            self._next()
            f = self.formula()
            tok = self._next()
            if tok[:2] != ("sym", ")"):
                raise ParseError("expected ')'", tok[2])
        else:
            f = self.comparison()
        for _ in range(nots):
            f = ANot(f)
        return f

    def _formula_ahead(self) -> bool:
        """After '(', does the matching ')' close a formula (vs a term)?

        It does when a connective or comparator stands in the group outside
        any inner parentheses, or when the group holds nothing but one
        inner group that closes a formula, as in ``((x1 = 2))``.
        """
        tokens = self.tokens
        start = self.pos
        while True:
            depth = 0
            inner_close = None   # where the first inner group closes
            for i in range(start, len(tokens)):
                kind, value, _ = tokens[i]
                if value == "(":
                    depth += 1
                elif value == ")":
                    depth -= 1
                    if depth == 1 and inner_close is None:
                        inner_close = i
                    if depth == 0:
                        break
                elif depth == 1 and (kind == "kw" or
                                     value in ("=", "<=", "<")):
                    return True
            else:
                return False
            if tokens[start + 1][1] != "(" or inner_close != i - 1:
                return False
            start += 1

    def comparison(self) -> ArithFormula:
        left = self.sum()
        tok = self._next()
        if tok[:2] == ("sym", "="):
            return AEq(left, self.sum())
        if tok[:2] == ("sym", "<="):
            return ALe(left, self.sum())
        if tok[:2] == ("sym", "<"):
            right = self.sum()
            return AAnd(ALe(left, right), ANot(AEq(left, right)))
        raise ParseError(f"expected a comparator, got {tok[1]!r}", tok[2])

    def sum(self) -> ArithTerm:
        t = self.product()
        while self._accept("sym", "+"):
            t = AAdd(t, self.product())
        return t

    def product(self) -> ArithTerm:
        t = self.atom()
        while self._accept("sym", "*"):
            t = AMul(t, self.atom())
        return t

    def atom(self) -> ArithTerm:
        tok = self._next()
        kind, value, off = tok
        if kind == "nat":
            return ANat(int(value))
        if kind == "var":
            return AVar(value)
        if kind == "sym" and value == "(":
            t = self.sum()
            tok = self._next()
            if tok[:2] != ("sym", ")"):
                raise ParseError("expected ')'", tok[2])
            return t
        raise ParseError(f"expected a term, got {value!r}", off)


def parse_arith(text: str) -> ArithFormula:
    parser = _Parser(text)
    depth = 0
    for _, value, off in parser.tokens:
        if value == "(":
            depth += 1
            if depth > MAX_PARENS:
                raise ParseError(f"parentheses nest too deep (more than "
                                 f"{MAX_PARENS} levels)", off)
        elif value == ")":
            depth -= 1
    f = parser.formula()
    tok = parser._peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    depth = nesting_depth(f)
    if depth > MAX_DEPTH:
        raise ParseError(f"nesting too deep ({depth} operators, more than "
                         f"{MAX_DEPTH})", 0)
    return f


def nesting_depth(node) -> int:
    """How many operators nest inside one another in node: variables and
    literals count 0, any other node one more than its deepest operand.
    The walk keeps its own stack, so it measures a node of any depth."""
    depth = {}
    todo = [node]
    while todo:
        n = todo[-1]
        if id(n) in depth:
            todo.pop()
            continue
        kids = [k for k in _operands(n) if id(k) not in depth]
        if kids:
            todo.extend(kids)
            continue
        todo.pop()
        depth[id(n)] = 1 + max((depth[id(k)] for k in _operands(n)),
                               default=-1)
    return depth[id(node)]


def _operands(node) -> tuple:
    if isinstance(node, (AVar, ANat)):
        return ()
    if isinstance(node, ANot):
        return (node.arg,)
    if isinstance(node, (AAdd, AMul, AEq, ALe, AAnd, AOr)):
        return (node.left, node.right)
    raise TypeError(f"unknown node: {node!r}")


# -- printing -------------------------------------------------------------------

def _print_term(t: ArithTerm, parent: str = "") -> str:
    if isinstance(t, AVar):
        return t.name
    if isinstance(t, ANat):
        return str(t.value)
    if isinstance(t, AAdd):
        s = f"{_print_term(t.left, '+')} + {_print_term(t.right, '+r')}"
        return f"({s})" if parent in ("*", "*r", "+r") else s
    if isinstance(t, AMul):
        s = f"{_print_term(t.left, '*')} * {_print_term(t.right, '*r')}"
        return f"({s})" if parent in ("*r",) else s
    raise TypeError(f"not a term: {t!r}")


def print_arith(f: ArithFormula, parent: str = "") -> str:
    if isinstance(f, AEq):
        return f"{_print_term(f.left)} = {_print_term(f.right)}"
    if isinstance(f, ALe):
        return f"{_print_term(f.left)} <= {_print_term(f.right)}"
    if isinstance(f, ANot):
        # 'not' binds a literal: a comparison or another negation needs no
        # parentheses, so nested negations print no deeper than they parse
        arg = print_arith(f.arg)
        return f"not {arg}" if isinstance(f.arg, (AEq, ALe, ANot)) \
            else f"not ({arg})"
    if isinstance(f, AAnd):
        s = f"{print_arith(f.left, 'and')} and {print_arith(f.right, 'and_r')}"
        return f"({s})" if parent in ("and_r", "or_r") else s
    if isinstance(f, AOr):
        s = f"{print_arith(f.left, 'or')} or {print_arith(f.right, 'or_r')}"
        return f"({s})" if parent in ("and", "and_r", "or_r") else s
    raise TypeError(f"not a formula: {f!r}")


# -- semantics --------------------------------------------------------------------

def eval_term(t: ArithTerm, env: Dict[str, int]) -> int:
    if isinstance(t, AVar):
        return env[t.name]
    if isinstance(t, ANat):
        return t.value
    if isinstance(t, AAdd):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, AMul):
        return eval_term(t.left, env) * eval_term(t.right, env)
    raise TypeError(f"not a term: {t!r}")


def eval_arith(f: ArithFormula, env: Dict[str, int]) -> bool:
    if isinstance(f, AEq):
        return eval_term(f.left, env) == eval_term(f.right, env)
    if isinstance(f, ALe):
        return eval_term(f.left, env) <= eval_term(f.right, env)
    if isinstance(f, ANot):
        return not eval_arith(f.arg, env)
    if isinstance(f, AAnd):
        return eval_arith(f.left, env) and eval_arith(f.right, env)
    if isinstance(f, AOr):
        return eval_arith(f.left, env) or eval_arith(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


def variables(node) -> set:
    if isinstance(node, AVar):
        return {node.name}
    if isinstance(node, ANat):
        return set()
    if isinstance(node, (AAdd, AMul, AEq, ALe, AAnd, AOr)):
        return variables(node.left) | variables(node.right)
    if isinstance(node, ANot):
        return variables(node.arg)
    raise TypeError(f"unknown node: {node!r}")


def var_count(f: ArithFormula) -> int:
    """k such that the variables are among x1..xk (0 for closed formulas)."""
    names = variables(f)
    return max((int(n[1:]) for n in names), default=0)


def bounded_nat_sat(f: ArithFormula, bound: int
                    ) -> Optional[Tuple[int, ...]]:
    """First witness in lexicographic order over [0, bound]^k, or None."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    k = var_count(f)
    names = [f"x{i}" for i in range(1, k + 1)]
    for values in itertools.product(range(bound + 1), repeat=k):
        if eval_arith(f, dict(zip(names, values))):
            return values
    return None
