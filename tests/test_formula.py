"""Parser and printer tests: golden examples, error offsets, round-trips."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnl4
from cnl4.fc import BOOLEAN_NEG, DEFINING_TERMS, unary_clone_closure
from cnl4.formula import (
    MAX_DEPTH,
    And,
    Atom,
    Neg,
    Or,
    ParseError,
    Sequent,
    format_formula,
    format_sequent,
    parse,
    parse_sequent,
    sequent_variables,
    size,
    subformulas,
    substitute,
    variables,
)
from helpers import (
    deep_formula_texts,
    formula_strategy,
    reference_format_formula,
    reference_parse,
    reference_parse_sequent,
    reference_subformulas,
    reference_substitute,
    reference_variables,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def outcome(parser, text: str):
    """The parsed formula or sequent, or the error's position and message."""
    try:
        return parser(text)
    except ParseError as exc:
        return exc.position, exc.message


@pytest.mark.parametrize(
    ("text", "tree"),
    [
        ("p", P),
        ("~p", Neg(P)),
        ("~~p", Neg(Neg(P))),
        ("p & q", And(P, Q)),
        ("p | q", Or(P, Q)),
        # Precedence: ~ binds tighter than &, & tighter than |.
        ("~p & q | r", Or(And(Neg(P), Q), R)),
        ("p | q & r", Or(P, And(Q, R))),
        ("~(p & q)", Neg(And(P, Q))),
        ("p & (q | r)", And(P, Or(Q, R))),
        # Left associativity.
        ("p & q & r", And(And(P, Q), R)),
        ("p | q | r", Or(Or(P, Q), R)),
        ("p12 & q_a", And(Atom("p12"), Atom("q_a"))),
    ],
)
def test_parse_examples(text: str, tree) -> None:
    assert parse(text) == tree


@pytest.mark.parametrize(
    ("tree", "text"),
    [
        (Or(And(Neg(P), Q), R), "~p & q | r"),
        (And(P, Or(Q, R)), "p & (q | r)"),
        (Neg(And(P, Q)), "~(p & q)"),
        (And(And(P, Q), R), "p & q & r"),
        # A right-nested tree is not the parser's default shape, so the
        # printer must keep the parentheses.
        (And(P, And(Q, R)), "p & (q & r)"),
        (Or(P, Or(Q, R)), "p | (q | r)"),
        (Neg(Neg(Neg(P))), "~~~p"),
    ],
)
def test_format_examples(tree, text: str) -> None:
    assert format_formula(tree) == text


@pytest.mark.parametrize(
    ("text", "position"),
    [
        ("", 1),
        ("p & (q", 7),
        ("p &", 4),
        ("~", 2),
        ("(p", 3),
        ("p q", 3),
        ("p @ q", 3),
        ("P", 1),
        ("p & & q", 5),
        (")p", 1),
    ],
)
def test_parse_error_positions(text: str, position: int) -> None:
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert exc_info.value.position == position


def test_parse_error_message_mentions_position() -> None:
    with pytest.raises(ParseError, match="position 7"):
        parse("p & (q")


def test_parse_rejects_trailing_turnstile() -> None:
    with pytest.raises(ParseError) as exc_info:
        parse("p |- q")
    assert exc_info.value.position == 3


@pytest.mark.parametrize("shape", deep_formula_texts(1))
def test_parse_accepts_formulas_at_the_depth_bound(shape) -> None:
    text = deep_formula_texts(MAX_DEPTH)[shape]
    assert format_formula(parse(text)) == text
    assert parse_sequent(f"{text} |- {text}").conclusion == parse(text)


@pytest.mark.parametrize("shape", deep_formula_texts(1))
def test_parse_refuses_formulas_past_the_depth_bound(shape) -> None:
    text = deep_formula_texts(MAX_DEPTH + 1)[shape]
    for parser, source in ((parse, text), (parse_sequent, f"p |- {text}")):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parser(source)


def test_depth_error_points_at_the_connective_past_the_bound() -> None:
    for text, position in (("~" * (MAX_DEPTH + 5) + "p", 5),
                           ("~" * 3000 + "p", 3000 - MAX_DEPTH),
                           (" & ".join(["p"] * (MAX_DEPTH + 5)), 4 * (MAX_DEPTH + 1) - 1),
                           (" & ".join(["p"] * 5000), 4 * (MAX_DEPTH + 1) - 1)):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.position == position
        assert outcome(parse, text) == outcome(reference_parse, text)


def test_parenthesis_nesting_is_bounded_too() -> None:
    assert parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH) == P
    with pytest.raises(ParseError, match=str(MAX_DEPTH)) as exc_info:
        parse("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1))
    assert exc_info.value.position == MAX_DEPTH + 1


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_parser_does_not_recurse() -> None:
    # each unit opens three parentheses and adds ~, & and | to the depth
    mixed = "~(p & (q | (" * (MAX_DEPTH // 3) + "~~r" + ")))" * (MAX_DEPTH // 3)
    texts = ["(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, mixed]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        results = [parse(text) for text in texts]
    finally:
        sys.setrecursionlimit(limit)
    assert results == [reference_parse(text) for text in texts]
    assert results[0] == P


def test_parse_sequent_examples() -> None:
    assert parse_sequent("p, q |- r") == Sequent((P, Q), R)
    assert parse_sequent("|- p | ~~p") == Sequent((), Or(P, Neg(Neg(P))))
    assert parse_sequent("~(p & q) |- ~p") == Sequent(
        (Neg(And(P, Q)),), Neg(P)
    )


def test_parse_sequent_requires_turnstile() -> None:
    with pytest.raises(ParseError):
        parse_sequent("p, q")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- r")


def test_format_sequent() -> None:
    assert format_sequent(Sequent((P, Q), R)) == "p, q |- r"
    assert format_sequent(Sequent((), P)) == "|- p"


def test_variables_in_first_occurrence_order() -> None:
    assert variables(parse("q & p | q")) == ["q", "p"]
    assert variables(parse("~~r")) == ["r"]
    assert sequent_variables(parse_sequent("q |- p | ~p")) == ["q", "p"]


def test_subformulas_and_size() -> None:
    f = parse("~(p & q)")
    assert list(subformulas(f)) == [Neg(And(P, Q)), And(P, Q), P, Q]
    assert size(f) == 4
    assert size(P) == 1


def test_substitute() -> None:
    template = parse("x & ~x")
    replaced = substitute(template, "x", parse("p | q"))
    assert replaced == parse("(p | q) & ~(p | q)")
    # Untouched variables stay put.
    assert substitute(template, "y", P) == template


@given(formula_strategy(), formula_strategy())
def test_str_is_the_printer(f, g) -> None:
    assert str(f) == format_formula(f)
    for s in (Sequent((f, g), g), Sequent((), f)):
        assert str(s) == format_sequent(s)


# ---------------------------------------------------------------------------
# The walks against the reference walks

def assert_walks_agree(f, name: str, replacement) -> None:
    """Every walk of ``f`` gives what its ``isinstance`` recursion gives;
    items and kept atoms are the very objects, not equal copies."""
    assert format_formula(f) == reference_format_formula(f)
    walk, reference = list(subformulas(f)), list(reference_subformulas(f))
    assert len(walk) == len(reference) == size(f)
    assert all(a is b for a, b in zip(walk, reference))
    assert variables(f) == reference_variables(f)
    s = Sequent((f, replacement), f)
    assert sequent_variables(s) == list(dict.fromkeys(
        [*reference_variables(f), *reference_variables(replacement)]))
    replaced = substitute(f, name, replacement)
    expected = reference_substitute(f, name, replacement)
    assert replaced == expected
    pairs = zip(reference_subformulas(replaced), reference_subformulas(expected))
    assert all(a is b for a, b in pairs if isinstance(a, Atom))


@given(formula_strategy(), st.sampled_from(("p", "q", "r", "s")),
       formula_strategy(atoms=("q", "s"), max_leaves=4))
def test_walks_agree_with_the_reference_walks(f, name: str, replacement) -> None:
    assert_walks_agree(f, name, replacement)


def test_walks_agree_with_the_reference_walks_on_the_fc_terms() -> None:
    witnesses = list(unary_clone_closure().witnesses.values())
    assert len(witnesses) == 256
    for f in (*witnesses, *DEFINING_TERMS.values()):
        assert_walks_agree(f, "x", BOOLEAN_NEG)
        assert_walks_agree(f, "y", P)


@pytest.mark.parametrize("bad", ["p", 3, None, ("p",), And(P, "q"), Neg(Or(P, 7))],
                         ids=repr)
def test_walks_of_a_non_formula_match_the_reference_walks(bad) -> None:
    for walk, reference in ((format_formula, reference_format_formula),
                            (lambda f: substitute(f, "p", Q),
                             lambda f: reference_substitute(f, "p", Q))):
        with pytest.raises(TypeError) as reference_error:
            reference(bad)
        with pytest.raises(TypeError) as error:
            walk(bad)
        assert str(error.value) == str(reference_error.value)
    assert list(subformulas(bad)) == list(reference_subformulas(bad))


def test_walks_of_deep_built_formulas_do_not_recurse() -> None:
    # built in code, so the parser's depth bound does not apply; ==, hash
    # and the printer still recurse, so only identities and names are checked
    atoms = [Atom(f"x{i}") for i in range(5001)]
    conjunctions = [atoms[0]]
    for atom in atoms[1:]:
        conjunctions.append(And(conjunctions[-1], atom))
    negations = [Atom("q")]
    for _ in range(5000):
        negations.append(Neg(negations[-1]))
    conj, neg = conjunctions[-1], negations[-1]
    names = [atom.name for atom in atoms]
    assert size(conj) == 10001
    assert variables(conj) == names
    assert sequent_variables(Sequent((neg, conj), conj)) == ["q", *names]
    walk = list(subformulas(neg))
    assert len(walk) == 5001
    assert all(a is b for a, b in zip(walk, reversed(negations)))
    walk = list(subformulas(conj))
    assert len(walk) == 10001
    assert all(a is b for a, b in zip(walk, [*reversed(conjunctions[1:]), *atoms]))


@given(formula_strategy(max_leaves=64))
def test_parse_format_roundtrip(f) -> None:
    assert parse(format_formula(f)) == f


@given(formula_strategy())
def test_format_is_deterministic(f) -> None:
    assert format_formula(f) == format_formula(f)


def test_atoms_are_hashable_values() -> None:
    assert Atom("p") == Atom("p")
    assert len({Atom("p"), Atom("p"), Atom("q")}) == 2


# ---------------------------------------------------------------------------
# Formulas as values

_CONNECTIVES = {"atom": Atom, "neg": Neg, "and": And, "or": Or}


def tagged_tuples(atoms: tuple[str, ...] = ("p", "q"), max_leaves: int = 4):
    """Formulas encoded as tuples tagged by connective: ``("atom", name)``,
    ``("neg", body)``, ``("and", left, right)`` or ``("or", left, right)``.
    Two atoms and few leaves make equal pairs common."""
    return st.recursive(
        st.sampled_from(atoms).map(lambda name: ("atom", name)),
        lambda sub: st.one_of(sub.map(lambda body: ("neg", body)),
                              st.tuples(st.sampled_from(("and", "or")), sub, sub)),
        max_leaves=max_leaves)


def build(t: tuple):
    """A formula of fresh node objects for a tagged tuple."""
    if t[0] == "atom":
        return Atom(t[1])
    return _CONNECTIVES[t[0]](*map(build, t[1:]))


@given(tagged_tuples(), tagged_tuples())
def test_equality_and_hash_are_structural(s, t) -> None:
    f, g = build(s), build(t)
    assert (f == g) is (s == t)
    assert (f != g) is (s != t)
    twin = build(s)
    assert twin is not f and twin == f and hash(twin) == hash(f)


def test_connectives_with_the_same_operands_differ() -> None:
    assert And(P, Q) != Or(P, Q)
    assert not And(P, Q) == Or(P, Q)
    assert Neg(P) != P and P != "p" and P != ("p",)
    assert And(P, Q) != (P, Q)
    assert Neg(P) != (P,)


def test_repr_names_every_field() -> None:
    assert repr(parse("~p & q")) == "And(left=Neg(body=Atom(name='p')), right=Atom(name='q'))"
    assert repr(parse("p | q")) == "Or(left=Atom(name='p'), right=Atom(name='q'))"


@pytest.mark.parametrize("f, field", [(P, "name"), (Neg(P), "body"),
                                      (And(P, Q), "left"), (Or(P, Q), "right")])
def test_fields_cannot_be_assigned_or_deleted(f, field: str) -> None:
    before = getattr(f, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(f, field, R)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(f, field)
    with pytest.raises(AttributeError):
        f.extra = R
    assert getattr(f, field) is before


@given(formula_strategy())
def test_pickle_and_copy_give_back_an_equal_formula(f) -> None:
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert twin == f and type(twin) is type(f) and repr(twin) == repr(f)


_DEEP_CHAINS = """
import sys
from cnl4.formula import Atom, Neg
from cnl4.nd import check, hyp

def chain():
    f = Atom("p")
    for _ in range(1_000_000):
        f = Neg(f)
    return f

f, g = chain(), chain()
for attempt in (lambda: hash(f), lambda: f == g, lambda: check(hyp("h", f))):
    try:
        attempt()
    except RecursionError:
        continue
    sys.exit("no RecursionError")
"""


def test_hashing_and_comparing_a_deep_formula_raise_recursion_error() -> None:
    # far past the recursion limit, each must raise rather than overflow
    # the C stack and kill the interpreter
    src = str(Path(cnl4.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _DEEP_CHAINS],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# The parser against the reference parser

_JUNK = "pqxy1A_~&|(),- \t\u00a0@\u00e9"


@st.composite
def parser_inputs(draw) -> str:
    """Junk strings, formula and sequent renderings with up to three
    character edits, and nests just inside and just past the depth bound."""
    kind = draw(st.sampled_from(["junk", "formula", "sequent", "deep"]))
    if kind == "junk":
        return draw(st.text(alphabet=_JUNK, max_size=24))
    if kind == "formula":
        text = format_formula(draw(formula_strategy()))
    elif kind == "sequent":
        premises = draw(st.lists(formula_strategy(max_leaves=6), max_size=3))
        text = format_sequent(Sequent(tuple(premises), draw(formula_strategy(max_leaves=6))))
    else:
        depth = draw(st.integers(MAX_DEPTH - 1, MAX_DEPTH + 2))
        shapes = deep_formula_texts(depth)
        shapes["parentheses"] = "(" * depth + "p" + ")" * depth
        shapes["disjunctions"] = " | ".join(["p"] * (depth + 1))
        text = shapes[draw(st.sampled_from(sorted(shapes)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(_JUNK))
        text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                                     text[:i] + c + text[i + 1:]]))
    return text


@settings(max_examples=400)
@given(parser_inputs())
def test_parsers_agree_with_the_reference_parser(text: str) -> None:
    assert outcome(parse, text) == outcome(reference_parse, text)
    assert outcome(parse_sequent, text) == outcome(reference_parse_sequent, text)
