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

The parser and the printer read one operator table, ``_BINARY``: the
parser applies operators by its precedences, and the printer puts back
only the parentheses those precedences need.  The parser reads a
parenthesized group as a whole expression and checks whether it is a term
or a formula where the group is used.

The walkers here and in ``flatten`` and ``compiler`` recurse once per
level of the syntax tree, and the parser once per parenthesis, so
``parse_arith`` refuses, as parse errors, parentheses nested more than
``MAX_PARENS`` deep and a formula whose operators nest more than
``MAX_DEPTH`` deep, as ``nesting_depth`` measures it.
"""

from __future__ import annotations

import itertools
import operator
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

#: how many parentheses may nest: the parser takes one Python frame for
#: each, since a group is the one thing it recurses on, and so stays far
#: inside the default recursion limit of 1,000.
MAX_PARENS = 200


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(x[0-9]+|and|or|not)|(<=|[()+*=<]))")


def _require_digits(digits: str, what: str, off: int) -> None:
    """Refuse digits that int() would not convert: more than Python's
    limit on the digits of a decimal string."""
    try:
        int(digits)
    except ValueError:
        raise ParseError(f"{what} too long ({len(digits)} digits)",
                         off) from None


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
            _require_digits(num, "numeral", off)
            tokens.append(("nat", num, off))
        elif word is not None:
            kind = "kw" if word in _KEYWORDS else "var"
            if kind == "var" and not _VAR.match(word):
                raise ParseError(f"bad variable {word!r} (use x1, x2, ...)",
                                 off)
            if kind == "var":
                _require_digits(word[1:], "variable index", off)
            tokens.append((kind, word, off))
        else:
            tokens.append(("sym", sym, off))
        pos = m.end()
    return tokens


def _strict_less(left: ArithTerm, right: ArithTerm) -> ArithFormula:
    return AAnd(ALe(left, right), ANot(AEq(left, right)))


#: binary operator word -> (precedence, the node it builds); a higher
#: precedence binds more tightly, and operators of one precedence group
#: to the left.  The prefix 'not' binds at ``_NOT``: more loosely than a
#: comparison, more tightly than 'and'.
_BINARY = {
    "or": (1, AOr), "and": (2, AAnd),
    "=": (4, AEq), "<=": (4, ALe), "<": (4, _strict_less),
    "+": (5, AAdd), "*": (6, AMul),
}
_NOT = 3

#: the nodes whose operands are formulas; every other operator takes terms
_CONNECTIVES = (ANot, AAnd, AOr)
_TERMS = (AVar, ANat, AAdd, AMul)


def _apply(word: str, make, args: tuple, off: int):
    """make(*args), once args are of the sort the operator word takes."""
    want = "formula" if make in _CONNECTIVES else "term"
    if any(isinstance(a, _TERMS) != (want == "term") for a in args):
        raise ParseError(f"expected a {want} as operand of {word!r}", off)
    return make(*args)


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

    def expr(self):
        """The term or formula up to the first token that is no operator
        or operand, by the precedences of ``_BINARY``: operands and the
        operators between them wait on two stacks, and an operator is
        applied once the next one binds no more tightly.  Only a
        parenthesized group recurses."""
        nodes, ops = [], []   # ops: (precedence, word, node it builds, offset)
        while True:
            kind, value, off = self._next()
            while value == "not":
                ops.append((_NOT, value, ANot, off))
                kind, value, off = self._next()
            if kind == "nat":
                nodes.append(ANat(int(value)))
            elif kind == "var":
                nodes.append(AVar(value))
            elif value == "(":
                nodes.append(self.expr())
                tok = self._next()
                if tok[1] != ")":
                    raise ParseError("expected ')'", tok[2])
            else:
                raise ParseError(f"expected a term, got {value!r}", off)
            kind, value, off = self._peek()
            prec, make = _BINARY.get(value, (0, None))
            while ops and ops[-1][0] >= prec:
                _, word, op, at = ops.pop()
                n = 1 if op is ANot else 2
                args = tuple(nodes[-n:])
                del nodes[-n:]
                nodes.append(_apply(word, op, args, at))
            if make is None:
                return nodes[0]
            self.pos += 1
            ops.append((prec, value, make, off))


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
    f = parser.expr()
    tok = parser._peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    if isinstance(f, _TERMS):
        raise ParseError("expected a formula, got a term", 0)
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
        kids = [k for k in operands(n) if id(k) not in depth]
        if kids:
            todo.extend(kids)
            continue
        todo.pop()
        depth[id(n)] = 1 + max((depth[id(k)] for k in operands(n)),
                               default=-1)
    return depth[id(node)]


def operands(node) -> tuple:
    """The operands of a term or formula node, left to right."""
    if isinstance(node, (AVar, ANat)):
        return ()
    if isinstance(node, ANot):
        return (node.arg,)
    if isinstance(node, (AAdd, AMul, AEq, ALe, AAnd, AOr)):
        return (node.left, node.right)
    raise TypeError(f"unknown node: {node!r}")


# -- printing -------------------------------------------------------------------

#: node class -> (operator word, precedence), for the printer
_WORD = {make: (word, prec) for word, (prec, make) in _BINARY.items()
         if word != "<"}
_WORD[ANot] = ("not", _NOT)


def _binds(node) -> int:
    """The precedence of node's operator; variables and literals bind
    most tightly."""
    return _WORD.get(type(node), ("", 7))[1]


def print_arith(node) -> str:
    """Infix text of a term or formula that ``parse_arith`` reads back to
    it, with the parentheses the precedences of ``_BINARY`` need: around an
    operand that binds more loosely than its operator, or, on the right of
    a binary operator, as loosely."""
    if isinstance(node, AVar):
        return node.name
    if isinstance(node, ANat):
        return str(node.value)
    word, prec = _WORD[type(node)]
    if isinstance(node, ANot):
        arg = print_arith(node.arg)
        return f"not {arg}" if _binds(node.arg) >= prec else f"not ({arg})"
    left, right = print_arith(node.left), print_arith(node.right)
    if _binds(node.left) < prec:
        left = f"({left})"
    if _binds(node.right) <= prec:
        right = f"({right})"
    return f"{left} {word} {right}"


# -- semantics --------------------------------------------------------------------

_VALUE = {AAdd: operator.add, AMul: operator.mul, AEq: operator.eq,
          ALe: operator.le}


def eval_arith(node, env: Dict[str, int]):
    """The value of a term, or the truth of a formula, under env."""
    if isinstance(node, AVar):
        return env[node.name]
    if isinstance(node, ANat):
        return node.value
    if isinstance(node, ANot):
        return not eval_arith(node.arg, env)
    left = eval_arith(node.left, env)
    if isinstance(node, AAnd):
        return left and eval_arith(node.right, env)
    if isinstance(node, AOr):
        return left or eval_arith(node.right, env)
    return _VALUE[type(node)](left, eval_arith(node.right, env))


def variables(node) -> set:
    if isinstance(node, AVar):
        return {node.name}
    return set().union(*map(variables, operands(node)))


def var_count(f: ArithFormula) -> int:
    """k such that the variables are among x1..xk (0 for closed formulas)."""
    names = variables(f)
    return max((int(n[1:]) for n in names), default=0)


def bounded_nat_sat(f: ArithFormula, bound: int
                    ) -> Optional[Tuple[int, ...]]:
    """First witness in lexicographic order over [0, bound]^k, or None.

    Only the variables f uses are enumerated; the others never change its
    truth, so the first witness holds 0 for each of them.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    used = sorted(int(name[1:]) for name in variables(f))
    names = [f"x{i}" for i in used]
    for values in itertools.product(range(bound + 1), repeat=len(used)):
        if eval_arith(f, dict(zip(names, values))):
            witness = [0] * var_count(f)
            for i, value in zip(used, values):
                witness[i - 1] = value
            return tuple(witness)
    return None
