"""Concrete syntax round trips and parse errors."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlogic.errors import ParseError
from normlogic.logic import (And, Eq, Forall, Le, Lt, Not, Or, SAdd, SConst,
                             SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar,
                             VZero, VecEq, mk_pSD, parse_sentence,
                             print_sentence)
from normlogic.logic.sexpr import (MAX_DEPTH, _split, _tokenize,
                                   nesting_depth)


#: a label's definition or reference, a parenthesis, or a run of anything
#: else
_PIECE = re.compile(r"#(\d+)=|#(\d+)#|[()]|[^#()]+|#")


def expand_labels(text):
    """text with each "#n#" replaced by the text of the "#n=(...)" group it
    refers to, and each "#n=" dropped: the tree text of a labelled one.
    It reads the text alone, and shares nothing with the parser."""
    out, opens, groups = [], [], {}
    label = None
    for m in _PIECE.finditer(text):
        if m[1] is not None:
            label = m[1]
        elif m[2] is not None:
            out.append(groups[m[2]])
        else:
            if m[0] == "(":
                opens.append((label, len(out)))
                label = None
            out.append(m[0])
            if m[0] == ")":
                name, start = opens.pop()
                if name is not None:
                    groups[name] = "".join(out[start:])
    return "".join(out)


def test_psd_round_trip():
    f = mk_pSD(VVar("v"), VVar("w"))
    assert parse_sentence(print_sentence(f)) == f


def test_grammar_example():
    f = parse_sentence("(= (norm (vadd v w)) (+ (norm v) (norm w)))")
    assert f == mk_pSD(VVar("v"), VVar("w"))


def test_malformed_input_offset():
    with pytest.raises(ParseError) as exc:
        parse_sentence("(= (norm")
    assert exc.value.offset == 8


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_sentence("(= a b) junk")


def test_unknown_operator_offset():
    with pytest.raises(ParseError) as exc:
        parse_sentence("(frobnicate a b)")
    assert exc.value.offset == 1


@pytest.mark.parametrize("text, message, offset", [
    ("(= (frob a) b)", "unknown scalar operator 'frob'", 4),
    ("(veq (frob v) w)", "unknown vector operator 'frob'", 6),
    ("(= (and) b)", "unknown scalar operator 'and'", 4),
    ("(not a)", "expected 'open', got 'a'", 5),
    ("(veq (vscale x v) w)", "expected a rational coefficient", 13),
    ("(and", "unexpected end of input", 4),
    ("(not (= a b) c)", "expected 'close', got 'c'", 13),
    ("(forall ((1x vec)) (= a b))", "expected a variable name", 10),
    ("(forall ((x foo)) (= a b))", "unknown sort 'foo'", 12),
    ("((", "expected an operator symbol", 1),
    ("(= a b) junk", "trailing input 'junk'", 8),
    ("(= a ;c\n (+ b", "unexpected end of input", 13),
    ("(= a\u3000(frob b))", "unknown scalar operator 'frob'", 6),
    ("(= a 1/0)", "zero denominator in '1/0'", 5),
    ("(veq (vscale 0/0 v) w)", "zero denominator in '0/0'", 13),
    ("(= a " + "1" * 5000 + ")", "number too long (5000 characters)", 5),
    ("(veq (vscale 1/" + "1" * 5000 + " v) w)",
     "number too long (5002 characters)", 13),
    ("(and #1# #1=(= a b))", "undefined label '#1#'", 5),
    ("(= a #7#)", "undefined label '#7#'", 5),
    ("(not #1=(not #1#))", "undefined label '#1#'", 13),
    ("(and #1=(= a b) #1=(= a c))", "label '#1=' defined twice", 16),
    ("(= #1=x x)", "label '#1=' not followed by '('", 3),
    ("(= #1= x x)", "label '#1=' not followed by '('", 3),
    ("(not #1=#2=(= a b))", "label '#1=' not followed by '('", 5),
    ("(and (veq #1=(vneg v) w) #1#)", "label '#1#' is not a formula", 25),
    ("(= (norm #1=(vneg v)) #1#)", "label '#1#' is not a scalar term", 22),
    ("(not #1=", "unexpected end of input", 8),
    ("(= #1 a)", "bad scalar atom '#1'", 3),
], ids=["scalar-operator", "vector-operator", "formula-head-in-term",
        "atom-in-formula", "vscale-coefficient", "and-cut-off",
        "extra-argument", "bad-variable-name", "unknown-sort",
        "open-as-operator", "trailing-input", "cut-off-after-comment",
        "after-ideographic-space", "zero-denominator-constant",
        "zero-denominator-coefficient", "long-constant", "long-coefficient",
        "forward-reference", "undefined-label", "reference-in-own-group",
        "label-defined-twice", "label-on-atom", "label-before-atom",
        "label-on-label", "vector-label-as-formula",
        "vector-label-as-scalar", "label-at-end", "not-a-label"])
def test_parse_error_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_sentence(text)
    assert str(exc.value) == f"{message} (at offset {offset})"
    assert exc.value.offset == offset


def _nested_not(levels, labelled=False):
    """(= a b) inside levels - 1 negations: levels nested nodes.
    Labelled, the node at level k is written #k=(...)."""
    def label(k):
        return f"#{k}=" if labelled else ""
    return "".join(label(k) + "(not " for k in range(1, levels)) \
        + label(levels) + "(= a b)" + ")" * (levels - 1)


def _open_offsets(text):
    """The offset of each "(" in text, in order."""
    return [m.start() for m in re.finditer(r"\(", text)]


def test_nesting_up_to_max_depth_parses():
    f = parse_sentence(_nested_not(MAX_DEPTH))
    assert print_sentence(f) == _nested_not(MAX_DEPTH)


def test_labelled_nesting_up_to_max_depth_parses():
    # a label at every level: each level takes one frame, as a plain one
    f = parse_sentence(_nested_not(MAX_DEPTH, labelled=True))
    assert f is parse_sentence(_nested_not(MAX_DEPTH))
    assert nesting_depth(f) == MAX_DEPTH


@pytest.mark.parametrize("levels, labelled", [
    (MAX_DEPTH + 1, False), (3000, False),
    (MAX_DEPTH + 1, True), (3000, True),
], ids=[str(MAX_DEPTH + 1), "3000", f"labelled-{MAX_DEPTH + 1}",
        "labelled-3000"])
def test_nesting_too_deep_is_a_parse_error(levels, labelled):
    # reported at the first node past the limit, instead of overflowing
    # the stack: a labelled level takes no more frames than a plain one
    text = _nested_not(levels, labelled)
    with pytest.raises(ParseError) as exc:
        parse_sentence(text)
    assert str(exc.value).startswith("nesting too deep")
    assert exc.value.offset == _open_offsets(text)[MAX_DEPTH]
    if not labelled:
        # each "(not " is 5 characters
        assert exc.value.offset == 5 * MAX_DEPTH


def test_shared_chain_at_max_depth_round_trips():
    # Y_k = not Y_(k-1); the conjunction repeats Y_1 ... Y_(MAX_DEPTH - 3)
    # after Y_(MAX_DEPTH - 2), so each of them is labelled inside it
    chain = [Eq(SVar("a"), SVar("b"))]
    for _ in range(MAX_DEPTH - 2):
        chain.append(Not(chain[-1]))
    f = And((chain[-1],) + tuple(chain[1:-1]))
    assert nesting_depth(f) == MAX_DEPTH
    text = print_sentence(f)
    assert f"#{MAX_DEPTH - 3}=" in text
    assert parse_sentence(text) is f


def test_nesting_limit_counts_term_nodes():
    def veq(negations):
        return "(veq " + "(vneg " * negations + "v" + ")" * negations + " w)"

    parse_sentence(veq(MAX_DEPTH - 1))
    with pytest.raises(ParseError) as exc:
        parse_sentence(veq(MAX_DEPTH))
    assert exc.value.offset == len("(veq ") + len("(vneg ") * (MAX_DEPTH - 1)


@pytest.mark.parametrize("text, depth", [
    ("(= a b)", 1), ("(veq 0v (vscale 1/2 v))", 2), ("(and)", 1),
    ("(forall ((a scalar) (v vec)) (<= a (norm v)))", 3),
    ("(or (= a 1) (not (< (neg a) (+ b 2))))", 4),
    (_nested_not(MAX_DEPTH), MAX_DEPTH),
])
def test_nesting_depth_counts_what_the_parser_counts(text, depth):
    assert nesting_depth(parse_sentence(text)) == depth


def test_nesting_depth_has_no_recursion_limit():
    f = Eq(SVar("a"), SVar("a"))
    for _ in range(5000):
        f = Not(f)
    assert nesting_depth(f) == 5001


# -- labelled shared subterms -----------------------------------------------------

_NV = SNorm(VVar("v"))
_EQ = Eq(_NV, _NV)
_ONE = SConst(Fraction(1))


@pytest.mark.parametrize("f, text, tree", [
    (_EQ, "(= #1=(norm v) #1#)", "(= (norm v) (norm v))"),
    (And((_EQ, _EQ, Le(SAdd(_NV, _NV), _NV))),
     "(and #2=(= #1=(norm v) #1#) #2# (<= (+ #1# #1#) #1#))",
     "(and (= (norm v) (norm v)) (= (norm v) (norm v)) "
     "(<= (+ (norm v) (norm v)) (norm v)))"),
    (Forall((("a", "scalar"),),
            Or((Not(Eq(SVar("a"), _ONE)),) * 2 + (Eq(SVar("a"), _ONE),))),
     "(forall ((a scalar)) (or #1=(not #2=(= a 1)) #1# #2#))",
     "(forall ((a scalar)) (or (not (= a 1)) (not (= a 1)) (= a 1)))"),
], ids=["norm-twice", "repeated-conjunct", "label-inside-a-lower-label"])
def test_shared_subterms_print_labelled(f, text, tree):
    printed = print_sentence(f)
    assert printed == text
    assert expand_labels(printed) == tree
    assert parse_sentence(printed) is f
    assert parse_sentence(tree) is f


def test_atoms_and_unshared_nodes_are_not_labelled():
    f = Eq(SAdd(SVar("a"), SVar("a")), SAdd(SConst(Fraction(1, 2)),
                                            SConst(Fraction(1, 2))))
    assert print_sentence(f) == "(= (+ a a) (+ 1/2 1/2))"


def _label_at_depth(height, depth, chained=False):
    """(text, offset of its reference): a sentence that defines a label of
    the given height and refers to it where a node stands depth levels
    deep.  Chained, the label refers to a label of height - 1 defined
    before it, so its height is known only through that reference."""
    if chained:
        label = "(and #1=" + _nested_not(height - 1) + " #2=(not #1#) "
        ref = "#2#"
    else:
        label = "(and #1=" + _nested_not(height) + " "
        ref = "#1#"
    levels = depth - 2
    head = label + "(not " * levels
    return head + ref + ")" * levels + ")", len(head)


@pytest.mark.parametrize("height, chained", [
    (1, False), (10, False), (300, False), (10, True), (300, True)])
def test_label_reference_depth(height, chained):
    # a reference at depth d to a label of height h nests d + h - 1 deep
    text, _ = _label_at_depth(height, MAX_DEPTH - height + 1, chained)
    f = parse_sentence(text)
    assert nesting_depth(f) == MAX_DEPTH
    assert nesting_depth(parse_sentence(expand_labels(text))) == MAX_DEPTH
    text, offset = _label_at_depth(height, MAX_DEPTH - height + 2, chained)
    with pytest.raises(ParseError) as exc:
        parse_sentence(text)
    assert str(exc.value) == f"nesting too deep (more than {MAX_DEPTH} " \
                             f"levels) (at offset {offset})"
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_sentence(expand_labels(text))


def test_label_definition_too_deep():
    # a labelled group is a node like any other: at MAX_DEPTH it parses,
    # one level deeper it is too deep, at its parenthesis
    for levels, ok in ((MAX_DEPTH - 1, True), (MAX_DEPTH, False)):
        head = "(not " * levels + "#1="
        text = head + "(= a b)" + ")" * levels
        if ok:
            assert nesting_depth(parse_sentence(text)) == MAX_DEPTH
            continue
        with pytest.raises(ParseError) as exc:
            parse_sentence(text)
        assert str(exc.value) == f"nesting too deep (more than {MAX_DEPTH} " \
                                 f"levels) (at offset {len(head)})"


def test_quantifier_round_trip():
    f = Forall((("v", "vec"), ("c", "scalar")),
               Le(SVar("c"), SNorm(VVar("v"))))
    assert parse_sentence(print_sentence(f)) == f


def test_rationals_round_trip():
    f = Eq(SConst(Fraction(-3, 4)), SAdd(SVar("a"), SConst(Fraction(7))))
    assert parse_sentence(print_sentence(f)) == f


def test_zero_vector_round_trip():
    f = VecEq(VZero(), VNeg(VScale(Fraction(1, 2), VVar("v"))))
    assert parse_sentence(print_sentence(f)) == f


# -- property: arbitrary formulas survive the round trip -------------------------

_names = st.sampled_from(["v", "w", "S.1", "S.2", "e1", "a'"])
_rats = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def _vectors(depth):
    if depth == 0:
        return st.one_of(st.builds(VVar, _names), st.just(VZero()))
    sub = _vectors(depth - 1)
    return st.one_of(
        st.builds(VVar, _names), st.just(VZero()),
        st.builds(VAdd, sub, sub), st.builds(VNeg, sub),
        st.builds(VScale, _rats, sub))


def _scalars(depth):
    vec = _vectors(depth)
    if depth == 0:
        return st.one_of(st.builds(SVar, _names), st.builds(SConst, _rats))
    sub = _scalars(depth - 1)
    return st.one_of(
        st.builds(SVar, _names), st.builds(SConst, _rats),
        st.builds(SNorm, vec), st.builds(SAdd, sub, sub),
        st.builds(SNeg, sub))


def _formulas(depth):
    sc = _scalars(depth)
    vec = _vectors(depth)
    atom = st.one_of(st.builds(Eq, sc, sc), st.builds(Le, sc, sc),
                     st.builds(Lt, sc, sc), st.builds(VecEq, vec, vec))
    if depth == 0:
        return atom
    sub = _formulas(depth - 1)
    return st.one_of(
        atom,
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(lambda n, f: Forall(((n, "vec"),), f), _names, sub))


@settings(max_examples=200, deadline=None)
@given(_formulas(2))
def test_round_trip_property(f):
    text = print_sentence(f)
    assert parse_sentence(text) is f
    tree = expand_labels(text)
    assert parse_sentence(tree) is f
    assert "#" not in tree


# -- the tokenizer against the character loop it replaced --------------------------

def _loop_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            tokens.append(("open", "(", i))
            i += 1
        elif c == ")":
            tokens.append(("close", ")", i))
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
    return tokens


# whitespace that str.isspace and a regex \s might be thought to disagree on
_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_PIECES = st.one_of(
    st.sampled_from(_SPACES + ["(", ")", ";", "; c (x)\u3000y"]),
    st.text(st.sampled_from("ab0/-.'=<v;()") | st.sampled_from(_SPACES),
            max_size=4),
    st.text(max_size=3))


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECES, max_size=30).map("".join))
def test_tokenizer_matches_character_loop(text):
    assert _tokenize(text) == _loop_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECES, max_size=30).map("".join))
def test_split_matches_tokenizer(text):
    assert _split(text) == [v for _, v, _ in _tokenize(text)]


def test_tokenizer_skips_comments_and_unicode_space():
    text = "(= a\u3000b) ; (c d\n\x1c(x\x85y);"
    assert _tokenize(text) == _loop_tokenize(text)
    assert [v for _, v, _ in _tokenize(text)] == \
        ["(", "=", "a", "b", ")", "(", "x", "y", ")"]
