"""Tests for the four relational readings of the matrix semantics.

Each reading is a bijective relabeling of the four matrix values as subsets
of {1, 0}, paired with truth/falsity clauses and a preservation mode.  The
tests pin the correspondence tables, the clause-level evaluator, the golden
table files, and the equivalence of every reading with the matrix semantics.
"""

from __future__ import annotations

import copy
import importlib.resources
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl4.formula import Atom, parse, parse_sequent, variables
from cnl4.matrix import (
    WITNESS_ORDER,
    Value,
    evaluate,
    interpretations,
    is_consequence,
)
from cnl4.relational import (
    FDE_ORDER,
    OPTIONS,
    FalsityStyle,
    FdeValue,
    NegFalsityClause,
    NegTruthClause,
    Preservation,
    TruthSet,
    check_option_equivalence,
    correspond,
    get_option,
    option_table_lines,
    option_tables,
    rel_consequence,
    rel_designated,
    rel_eval,
)
from helpers import designated_truth_sets, formula_strategy, random_sequent

V1, VI, VJ, V0 = Value.V1, Value.VI, Value.VJ, Value.V0

BOTH = TruthSet(True, True)
JUST_1 = TruthSet(True, False)
JUST_0 = TruthSet(False, True)
NEITHER = TruthSet(False, False)

OPTION_IDS = ("O1", "O2", "O3", "O4")


def test_truth_set_rendering() -> None:
    assert str(BOTH) == "{1,0}"
    assert str(JUST_1) == "{1}"
    assert str(JUST_0) == "{0}"
    assert str(NEITHER) == "{}"


def test_option_registry() -> None:
    assert tuple(OPTIONS) == OPTION_IDS
    for option_id in OPTION_IDS:
        assert get_option(option_id).id == option_id
    with pytest.raises(ValueError, match="O5"):
        get_option("O5")


@pytest.mark.parametrize(
    ("option_id", "value", "expected"),
    [
        ("O1", VI, BOTH),
        ("O2", VI, NEITHER),
        ("O4", VJ, JUST_1),
    ],
)
def test_correspond_examples(option_id, value, expected) -> None:
    assert correspond(get_option(option_id), value) == expected


def test_correspondence_table() -> None:
    expected = {
        "O1": {V1: "t", VI: "b", VJ: "n", V0: "f"},
        "O2": {V1: "t", VI: "n", VJ: "b", V0: "f"},
        "O3": {V1: "b", VI: "t", VJ: "f", V0: "n"},
        "O4": {V1: "b", VI: "f", VJ: "t", V0: "n"},
    }
    fde_of = {
        "t": JUST_1,
        "b": BOTH,
        "n": NEITHER,
        "f": JUST_0,
    }
    for option_id, column in expected.items():
        option = get_option(option_id)
        for value, letter in column.items():
            assert option.value_map[value] == FdeValue(letter)
            assert correspond(option, value) == fde_of[letter]


@pytest.mark.parametrize("option_id", OPTION_IDS)
def test_correspondence_is_a_bijection(option_id) -> None:
    images = {correspond(get_option(option_id), v) for v in Value}
    assert images == {BOTH, JUST_1, JUST_0, NEITHER}


def test_rel_eval_negation_example() -> None:
    # O1 negation: 1 enters when 0 is absent, 0 enters when 1 is present,
    # so ~p at p = {1} collects both.
    option = get_option("O1")
    assert rel_eval(option, parse("~p"), {"p": JUST_1}) == BOTH


def test_rel_eval_conjunction_example() -> None:
    # O3 conjunction: truth needs both conjuncts true, falsity needs both
    # false; at p = {1,0}, q = {0} only the falsity clause fires.
    option = get_option("O3")
    env = {"p": BOTH, "q": JUST_0}
    assert rel_eval(option, parse("p & q"), env) == JUST_0


@pytest.mark.parametrize("option_id", OPTION_IDS)
@pytest.mark.parametrize("s", [BOTH, JUST_1, JUST_0, NEITHER])
def test_rel_eval_atom_base_case(option_id, s) -> None:
    assert rel_eval(get_option(option_id), Atom("p"), {"p": s}) == s


@pytest.mark.parametrize("value, shown", [((True, False), "(True, False)"),
                                          (FdeValue.T, "<FdeValue.T: 't'>")])
def test_rel_eval_refuses_values_that_are_not_truth_sets(value, shown: str) -> None:
    message = f"atom 'p' has value {shown}, not one of {{1}}, {{1,0}}, {{}}, {{0}}"
    with pytest.raises(TypeError) as info:
        rel_eval(OPTIONS["O1"], parse("p"), {"p": value})
    assert str(info.value) == message


@pytest.mark.parametrize("cls", [Value, FdeValue])
def test_value_names_hash_by_identity(cls) -> None:
    # Enum's own __hash__ runs Python code on every lookup of a value-keyed
    # dict, such as the option tables and the --fde name table
    assert cls.__hash__ is object.__hash__


def test_truth_sets_are_immutable_values() -> None:
    assert TruthSet(True, False) == JUST_1 and hash(TruthSet(True, False)) == hash(JUST_1)
    assert JUST_1 != (True, False) and JUST_1 != JUST_0
    assert repr(BOTH) == "TruthSet(has1=True, has0=True)"
    with pytest.raises(AttributeError, match="cannot assign to field 'has1'"):
        JUST_1.has1 = False
    with pytest.raises(AttributeError, match="cannot delete field 'has0'"):
        del JUST_1.has0
    assert pickle.loads(pickle.dumps(NEITHER)) == NEITHER == copy.deepcopy(NEITHER)


@pytest.mark.parametrize(
    ("option_id", "s", "expected"),
    [
        ("O1", BOTH, True),
        ("O2", NEITHER, True),
        ("O4", JUST_1, False),
    ],
)
def test_rel_designated_examples(option_id, s, expected) -> None:
    assert rel_designated(get_option(option_id), s) is expected


@pytest.mark.parametrize("option_id", OPTION_IDS)
def test_designated_sets_are_images_of_designated_values(option_id) -> None:
    option = get_option(option_id)
    images = {correspond(option, v) for v in (V1, VI)}
    assert designated_truth_sets(option) == images
    for s in (BOTH, JUST_1, JUST_0, NEITHER):
        assert rel_designated(option, s) == (s in images)


def test_preservation_modes() -> None:
    assert get_option("O1").preservation is Preservation.TRUTH
    assert get_option("O2").preservation is Preservation.NON_FALSITY
    assert get_option("O3").preservation is Preservation.TRUTH
    assert get_option("O4").preservation is Preservation.FALSITY


def test_negation_clause_pairing() -> None:
    # O1/O4 share one negation clause pair, O2/O3 the other.
    for option_id in ("O1", "O4"):
        option = get_option(option_id)
        assert option.neg_truth is NegTruthClause.ZERO_ABSENT
        assert option.neg_falsity is NegFalsityClause.ONE_PRESENT
    for option_id in ("O2", "O3"):
        option = get_option(option_id)
        assert option.neg_truth is NegTruthClause.ZERO_PRESENT
        assert option.neg_falsity is NegFalsityClause.ONE_ABSENT


def test_falsity_style_split() -> None:
    assert get_option("O1").falsity_style is FalsityStyle.EITHER
    assert get_option("O2").falsity_style is FalsityStyle.EITHER
    assert get_option("O3").falsity_style is FalsityStyle.BOTH
    assert get_option("O4").falsity_style is FalsityStyle.BOTH
    # The styles produce genuinely different tables: b & n is false under
    # the either-style but not under the both-style.
    conj = parse("p & q")
    env = {"p": BOTH, "q": NEITHER}
    assert rel_eval(get_option("O1"), conj, env).has0 is True
    assert rel_eval(get_option("O3"), conj, env).has0 is False


def test_truth_clauses_identical_across_options() -> None:
    """Conjunction/disjunction truth clauses do not vary by option."""
    sets = (BOTH, JUST_1, JUST_0, NEITHER)
    for connective in ("p & q", "p | q"):
        f = parse(connective)
        for a in sets:
            for b in sets:
                env = {"p": a, "q": b}
                truths = {
                    rel_eval(get_option(oid), f, env).has1
                    for oid in OPTION_IDS
                }
                assert len(truths) == 1


@pytest.mark.parametrize("option_id", OPTION_IDS)
def test_option_tables_match_golden_file(option_id) -> None:
    golden = (
        importlib.resources.files("cnl4.data")
        .joinpath(f"option_{option_id}.txt")
        .read_text()
    )
    assert option_table_lines(get_option(option_id)) == golden.splitlines()


def test_option_tables_structure() -> None:
    tables = option_tables(get_option("O1"))
    assert set(tables.neg) == set(FDE_ORDER)
    assert len(tables.conj) == 16 and len(tables.disj) == 16
    # O1 is the familiar four-valued lattice reading: b & n = f, b | n = t.
    assert tables.conj[(FdeValue.B, FdeValue.N)] == FdeValue.F
    assert tables.disj[(FdeValue.B, FdeValue.N)] == FdeValue.T


@pytest.mark.parametrize(
    ("option_id", "text", "count"),
    [
        ("O1", "~(p & q)", 16),
        ("O2", "~~p", 4),
        ("O4", "p | q", 16),
    ],
)
def test_check_option_equivalence_examples(option_id, text, count) -> None:
    report = check_option_equivalence(get_option(option_id), parse(text))
    assert report.ok
    assert report.checked == count
    assert report.mismatches == ()


@pytest.mark.parametrize(
    ("option_id", "text", "valid"),
    [
        ("O2", "q |- p | ~~p", True),
        ("O4", "p & ~p |- q", False),
        ("O3", "|- p | ~~p", True),
    ],
)
def test_rel_consequence_examples(option_id, text, valid) -> None:
    verdict = rel_consequence(get_option(option_id), parse_sequent(text))
    assert verdict.valid is valid


def test_rel_consequence_witness_refutes() -> None:
    option = get_option("O4")
    sequent = parse_sequent("p & ~p |- q")
    verdict = rel_consequence(option, sequent)
    assert not verdict.valid
    witness = verdict.witness
    assert witness is not None
    for premise in sequent.premises:
        assert rel_designated(option, rel_eval(option, premise, witness))
    assert not rel_designated(
        option, rel_eval(option, sequent.conclusion, witness)
    )
    # The witness is the matrix countermodel pushed through the value map.
    assert witness == {
        "p": correspond(option, V1),
        "q": correspond(option, V0),
    }


@settings(max_examples=80)
@given(
    formula_strategy(max_leaves=10),
    st.sampled_from(OPTION_IDS),
)
def test_bijection_commutation(f, option_id) -> None:
    """Relabel-then-evaluate equals evaluate-then-relabel."""
    option = get_option(option_id)
    for env in interpretations(variables(f)):
        rel_env = {name: correspond(option, v) for name, v in env.items()}
        assert rel_eval(option, f, rel_env) == correspond(
            option, evaluate(f, env)
        )


def test_consequence_coincides_with_matrix_verdict() -> None:
    rng = random.Random(417)
    sequents = [random_sequent(rng) for _ in range(40)]
    sequents += [
        parse_sequent(text)
        for text in (
            "q |- p | ~p",
            "p & ~p |- q",
            "~~p |- p",
            "p |- ~~p",
            "|- p | ~~p",
            "~(p & q) |- ~p & ~q",
        )
    ]
    for sequent in sequents:
        expected = is_consequence(sequent)
        for option_id in OPTION_IDS:
            option = get_option(option_id)
            verdict = rel_consequence(option, sequent)
            assert verdict.valid == expected.valid
            if not expected.valid:
                transported = {
                    name: correspond(option, v)
                    for name, v in expected.witness.items()
                }
                assert verdict.witness == transported


def test_witness_enumeration_mirrors_matrix_scan() -> None:
    option = get_option("O1")
    images = tuple(correspond(option, v) for v in WITNESS_ORDER)
    assert images == (JUST_1, BOTH, JUST_0, NEITHER)
