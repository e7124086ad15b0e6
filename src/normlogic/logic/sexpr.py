"""Concrete syntax: parenthesized prefix notation with sorted binders.

Grammar (one formula per file; whitespace separates tokens):

    formula  := (= s s) | (<= s s) | (< s s) | (veq v v)
              | (not f) | (and f ...) | (or f ...) | (=> f f)
              | (forall (binding ...) f) | (exists (binding ...) f)
    binding  := (name vec) | (name scalar)
    s        := name | rational | (+ s s) | (neg s) | (norm v)
    v        := name | 0v | (vadd v v) | (vneg v) | (vscale rational v)
    rational := integer | numerator/denominator

    Wherever a formula, s or v stands, so may a label:
               #n=(...)      the parenthesized node, labelled n
             | #n#           the node labelled n
    n        := digits

Labels are Common Lisp's reader labels (ANSI CL 2.4.8.15-16), and write a
sentence as the DAG that the interned AST is.  The printer labels each
parenthesized node that the sentence reaches by two or more edges,
numbering labels 1, 2, ... in the order their second occurrences are met,
and writes any other node as a tree; a sentence without a repeated node
prints with no labels.  The parser reads a tree, as written before labels
existed, to the same node.  A label is named by its digits as written;
it is defined once, referred to only after its group has closed, and
only where a node of its sort may stand.

Printing is deterministic and parse(print(f)) is f: the AST is interned,
so parsing a printed sentence returns the very nodes it was printed from
while they live.  The printer visits each distinct node once per call,
and the parser reads each distinct atom once.

Whitespace and comments (";" to the end of the line) separate tokens.  The
parser gets its tokens as plain strings from one str.split pass, once
comments are blanked and parentheses padded with spaces; it works out a
token's offset in the text, with ``_tokenize``, only to report an error
there.  The end of the input is at offset len(text).  A sentence may nest
at most ``MAX_DEPTH`` parenthesized nodes deep, as ``nesting_depth``
measures it; a deeper one is a parse error at the first node too deep,
not a RecursionError.  The parser takes one Python frame per level, and
reads a labelled group in the frame that takes its label.  It keeps each
label's height, the ``nesting_depth`` of its node, so a reference
standing d levels deep to a label of height h nests d + h - 1 deep, and
is the error, at the reference, when that passes ``MAX_DEPTH``.

Both directions read the node vocabulary from the AST's tables: ``_HEAD``
gives each class its operator word, ``KID_SORT`` the position its children
take, and ``_fields``/``_values`` how many there are.  The parser inverts
``_HEAD`` once per position (formula, scalar term, vector term), so a node
class needs no parsing code of its own unless its syntax is special: the
And/Or argument lists, the ``vscale`` coefficient and the binder lists.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import attrgetter
from typing import List, Tuple

from ..errors import ParseError
from .ast import (FORMULA_NODES, KID_SORT, SCALAR_NODES, VECTOR_NODES, And,
                  Eq, Exists, Forall, Formula, Implies, Le, Lt, Not, Or, SAdd,
                  SConst, SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar, VZero,
                  VecEq)

_NUMBER = re.compile(r"-?\d+(/\d+)?$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*$")

#: how many formula and term nodes may nest inside one another.  The
#: evaluator sets the bound: ``Evaluation`` takes two Python frames per
#: level, as a node's rule calls back into ``holds``, ``scalar`` or
#: ``vec``, where parsing and printing take one.  Under Python's default
#: recursion limit of 1,000 frames, the deepest chain of not, and, =>, +,
#: vneg or vadd that ``normlogic eval`` evaluated in full, with
#: --assignment and with --search, was 495 deep, and inside a pytest run
#: between 470 and 485, so 400 leaves 140 to 190 frames to the
#: evaluator's callers.  Compiled sentences grow with the formula: B
#: nests max(19, n + 3) deep for a sum of n terms or a conjunction of n
#: atoms, 2m + 4 for a product of m + 1 factors and 3m + 3 for m products
#: x*x = x as separate conjuncts, and A 22 deep whatever the formula.
#: ``normlogic compile`` refuses a formula whose sentences would nest
#: deeper than this.
MAX_DEPTH = 400


# -- printing ---------------------------------------------------------------

#: class -> its operator word; the parser reads it the other way round
_HEAD = {VAdd: "vadd", VNeg: "vneg", VScale: "vscale", SNorm: "norm",
         SAdd: "+", SNeg: "neg", Eq: "=", Le: "<=", Lt: "<", VecEq: "veq",
         Not: "not", And: "and", Or: "or", Implies: "=>", Forall: "forall",
         Exists: "exists"}


def print_sentence(f: Formula) -> str:
    """The text of f, with each compound node that f reaches by two or
    more edges written once: ``#n=(...)`` where it first occurs and ``#n#``
    wherever it occurs again."""
    if not isinstance(f, FORMULA_NODES):
        raise TypeError(f"not a formula: {f!r}")
    pieces = []
    labels = itertools.count(1)
    #: node -> the text of its next occurrence, with the space before it,
    #: for an atom or a labelled node; for a compound node met once, the
    #: index in pieces of its head, which starts with the space before it
    seen = {}
    append, look = pieces.append, seen.get

    def emit(node):
        """Append the pieces of node, a compound node met for the first
        time."""
        cls = type(node)
        seen[node] = len(pieces)
        head, sort, what = _OPEN[cls]
        if cls is VScale:
            head += " " + str(node.coeff)
        elif cls is Forall or cls is Exists:
            head += " (" + " ".join(f"({n} {s})" for n, s in node.vars) + ")"
        append(head)
        for kid in node._kids:
            if not isinstance(kid, sort):
                raise TypeError(f"not a {what}: {kid!r}")
            text = look(kid)
            if text is None:
                atom = _ATOM_TEXT.get(type(kid))
                if atom is None:
                    emit(kid)
                    continue
                text = seen[kid] = " " + atom(kid)
            elif text.__class__ is int:
                # met a second time: label it, and its first occurrence
                label = next(labels)
                pieces[text] = f" #{label}=" + pieces[text][1:]
                text = seen[kid] = f" #{label}#"
            append(text)
        append(")")

    emit(f)
    pieces[0] = pieces[0][1:]  # the sentence has no space before it
    return "".join(pieces)


#: compound class -> (the text before its first child, with the space
#: before it, the classes its children must be instances of, their name)
_OPEN = {cls: (" (" + word, *KID_SORT[cls]) for cls, word in _HEAD.items()}

#: the nodes printed as atoms, without parentheses of their own -> the
#: text of one
_ATOM_TEXT = {VVar: attrgetter("name"), SVar: attrgetter("name"),
              VZero: lambda _: "0v", SConst: lambda c: str(c.value)}
_ATOMS = tuple(_ATOM_TEXT)


def nesting_depth(node) -> int:
    """How many parenthesized nodes nest inside one another in the text
    of node: the measure MAX_DEPTH bounds.  The walk keeps its own stack,
    so it measures a node of any depth, and visits each distinct node
    once."""
    depth = {}
    todo = [node]
    while todo:
        n = todo[-1]
        if n in depth:
            todo.pop()
            continue
        kids = [k for k in n._kids if k not in depth]
        if kids:
            todo.extend(kids)
            continue
        todo.pop()
        depth[n] = (not isinstance(n, _ATOMS)) + max(
            map(depth.__getitem__, n._kids), default=0)
    return depth[node]


# -- tokenizing ---------------------------------------------------------------

#: a comment runs from ";" to the end of its line
_COMMENT = re.compile(r";[^\n]*")


def _split(text: str) -> List[str]:
    """The value of each token, in order: comments become spaces, each
    parenthesis is padded with spaces, and one str.split cuts the rest.
    Atoms hold no "(", ")" or ";", and str.split breaks at exactly the
    characters \\s matches, so these are _tokenize's values."""
    if ";" in text:
        text = _COMMENT.sub(" ", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


#: one match per token or comment; whitespace is skipped, and \s is
#: exactly str.isspace
_TOKEN = re.compile(r"(\()|(\))|([^\s();]+)|;[^\n]*")
_KINDS = (None, "open", "close", "atom")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, offset) of each token: "open", "close" or "atom".
    The parser reads _split's values, and builds this list only to find
    the offset of the token it reports an error at."""
    return [(_KINDS[m.lastindex], m[0], m.start())
            for m in _TOKEN.finditer(text) if m.lastindex]


class _BadAtom(ValueError):
    """An atom that its position cannot read; the parser reports the
    message at the atom's offset."""


def _rational(value: str) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise _BadAtom(f"zero denominator in {value!r}") from None
    except ValueError:  # more digits than Python converts
        raise _BadAtom(f"number too long ({len(value)} characters)") from None


def _scalar_atom(value: str):
    if _NUMBER.match(value):
        return SConst(_rational(value))
    if _NAME.match(value):
        return SVar(value)
    raise _BadAtom(f"bad scalar atom {value!r}")


def _vector_atom(value: str):
    if value == "0v":
        return VZero()
    if _NUMBER.match(value):
        raise _BadAtom("number in vector position")
    if _NAME.match(value):
        return VVar(value)
    raise _BadAtom(f"bad vector atom {value!r}")


def _coefficient_atom(value: str) -> Fraction:
    if not _NUMBER.match(value):
        raise _BadAtom("expected a rational coefficient")
    return _rational(value)


#: sort -> the position where a node of that sort stands: (operator ->
#: class, the reader of a bare atom there, the word for its operators,
#: the sort)
_POSITION = {sort: ({_HEAD[c]: c for c in sort if c in _HEAD}, atom, word,
                    sort)
             for sort, atom, word in ((FORMULA_NODES, None, ""),
                                      (SCALAR_NODES, _scalar_atom, "scalar "),
                                      (VECTOR_NODES, _vector_atom, "vector "))}

#: a token that starts with a label's definition "#n=", or is a reference
#: "#n#"; neither _NAME nor _NUMBER matches a token that starts with "#"
_LABEL = re.compile(r"#\d+(=|#$)")

#: sort -> what a node of that sort is called in an error
_NOUN = {FORMULA_NODES: "a formula", SCALAR_NODES: "a scalar term",
         VECTOR_NODES: "a vector term"}

#: class -> (the position of its children, how many it takes)
_SHAPE = {cls: (_POSITION[KID_SORT[cls][0]], len(cls._fields) - cls._values)
          for cls in _HEAD}


class _Parser:
    """Recursive descent over the token strings.  A token is "(", ")" or
    an atom, and a label is an atom that starts with "#".  Reading past
    the end raises IndexError, which parse_sentence reports as the end of
    the input."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _split(text)
        self.pos = 0
        #: (reader, atom) -> what the reader made of it; an atom repeats
        #: throughout a sentence, and is read once
        self.atoms = {}
        #: label reference "#n#" -> (its node, the node's nesting_depth),
        #: or None while the group that defines it is being read
        self.labels = {}
        #: the deepest level a node read so far stands at
        self.reach = 0

    def error(self, message: str, pos: int) -> ParseError:
        """message, reported at the offset of token pos."""
        return ParseError(message, _tokenize(self.text)[pos][2])

    def too_deep(self, pos: int) -> ParseError:
        return self.error(f"nesting too deep (more than {MAX_DEPTH} levels)",
                          pos)

    def _next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, tok: str, kind: str):
        got = self._next()
        if got != tok:
            raise self.error(f"expected {kind!r}, got {got!r}", self.pos - 1)

    def _atom(self, read, value: str):
        """What read makes of the atom just taken."""
        key = (read, value)
        node = self.atoms.get(key)
        if node is None:
            try:
                node = self.atoms[key] = read(value)
            except _BadAtom as e:
                raise self.error(str(e), self.pos - 1) from None
        return node

    def node(self, position, depth: int = 1):
        """The formula or term at the cursor, read where `position` says
        it stands; `depth` counts it and the nodes it is nested in.  A
        labelled group is read in the same call as its label, so each
        level of nesting takes one Python frame, labelled or not."""
        ops, atom, word, sort = position
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        ref = None
        if tok != "(":
            self.pos = pos + 1
            if tok[0] == "#":
                entry = self.labels.get(tok)
                if entry is not None:
                    node, height = entry
                    if not isinstance(node, sort):
                        raise self.error(f"label {tok!r} is not {_NOUN[sort]}",
                                         pos)
                    deepest = depth + height - 1
                    if deepest > self.reach:
                        if deepest > MAX_DEPTH:
                            raise self.too_deep(pos)
                        self.reach = deepest
                    return node
                if _LABEL.match(tok):
                    # a definition: its group stands where the label does,
                    # and the height it reaches is the label's
                    ref = self._label(pos)
                    outer, self.reach = self.reach, depth - 1
                    pos += 1
            if ref is None:
                if atom is None or tok == ")":
                    raise self.error(f"expected 'open', got {tok!r}", pos)
                return self._atom(atom, tok)
        if depth > self.reach:
            # self.reach never passes MAX_DEPTH
            if depth > MAX_DEPTH:
                raise self.too_deep(pos)
            self.reach = depth
        depth += 1
        head = tokens[pos + 1]
        self.pos = pos + 2
        cls = ops.get(head)
        if cls is None:
            if head == "(" or head == ")":
                raise self.error("expected an operator symbol", pos + 1)
            raise self.error(f"unknown {word}operator {head!r}", pos + 1)
        kid, arity = _SHAPE[cls]
        if arity == 2:
            node = cls(self.node(kid, depth), self.node(kid, depth))
        elif cls._variadic:
            args = []
            while tokens[self.pos] != ")":
                args.append(self.node(kid, depth))
            node = cls(tuple(args))
        elif cls is VScale:
            node = cls(self._coefficient(), self.node(kid, depth))
        elif cls is Forall or cls is Exists:
            node = cls(self._bindings(), self.node(kid, depth))
        else:
            node = cls(self.node(kid, depth))
        pos = self.pos
        if tokens[pos] != ")":
            raise self.error(f"expected 'close', got {tokens[pos]!r}", pos)
        self.pos = pos + 1
        if ref is not None:
            self.labels[ref] = node, self.reach - depth + 2
            if outer > self.reach:
                self.reach = outer
        return node

    def _label(self, pos: int) -> str:
        """The reference "#n#" of the label that token pos defines, marked
        as not defined yet while its group is read; a reference taken here
        is to a label not defined yet."""
        tok = self.tokens[pos]
        if tok[-1] == "#":
            raise self.error(f"undefined label {tok!r}", pos)
        label = tok[:tok.index("=") + 1]
        if label != tok or self.tokens[pos + 1] != "(":
            raise self.error(f"label {label!r} not followed by '('", pos)
        ref = label[:-1] + "#"
        if ref in self.labels:
            raise self.error(f"label {label!r} defined twice", pos)
        self.labels[ref] = None
        return ref

    def _coefficient(self) -> Fraction:
        # a parenthesis is no number either
        return self._atom(_coefficient_atom, self._next())

    def _bindings(self):
        self._expect("(", "open")
        binds = []
        while self.tokens[self.pos] != ")":
            self._expect("(", "open")
            name = self._next()
            if not _NAME.match(name):
                raise self.error("expected a variable name", self.pos - 1)
            sort = self._next()
            if sort not in ("vec", "scalar"):
                raise self.error(f"unknown sort {sort!r}", self.pos - 1)
            self._expect(")", "close")
            binds.append((name, sort))
        self.pos += 1
        return tuple(binds)


def parse_sentence(text: str) -> Formula:
    parser = _Parser(text)
    try:
        f = parser.node(_POSITION[FORMULA_NODES])
    except IndexError:
        raise ParseError("unexpected end of input", len(text)) from None
    if parser.pos < len(parser.tokens):
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}",
                           parser.pos)
    return f
