"""Matrix semantics tests.

The operation tables are checked verbatim against the shipped golden file,
then exercised through algebraic laws (full enumeration over the four-element
carrier), the schema facts that hold under every interpretation, and the
consequence checker's countermodel reporting.
"""

from __future__ import annotations

import importlib.resources

import pytest
from hypothesis import given, settings

from cnl4.formula import And, Neg, Or, parse, parse_sequent, variables
from cnl4.matrix import (
    AND,
    CANONICAL_ORDER,
    DESIGNATED,
    NEG,
    OR,
    WITNESS_ORDER,
    CapExceededError,
    UnboundVariableError,
    Value,
    conj,
    countermodel,
    disj,
    evaluate,
    interpretations,
    is_consequence,
    is_designated,
    matrix_table_lines,
    neg,
    truth_table,
)
from cnl4.relational import OPTIONS, correspond, rel_eval
from helpers import formula_strategy

V1, VI, VJ, V0 = Value.V1, Value.VI, Value.VJ, Value.V0
VALUES = list(CANONICAL_ORDER)


def test_tables_match_golden_file() -> None:
    golden = (
        importlib.resources.files("cnl4.data")
        .joinpath("matrix_tables.txt")
        .read_text()
    )
    assert matrix_table_lines() == golden.splitlines()


def test_negation_cycle() -> None:
    assert neg(V1) == VI
    assert neg(VI) == V0
    assert neg(V0) == VJ
    assert neg(VJ) == V1


@pytest.mark.parametrize("v", VALUES)
def test_negation_has_order_four(v: Value) -> None:
    assert neg(neg(neg(neg(v)))) == v
    assert neg(neg(v)) != v


@pytest.mark.parametrize("v", VALUES)
def test_double_negation_swaps_designation(v: Value) -> None:
    assert is_designated(neg(neg(v))) != is_designated(v)


def test_designated_values() -> None:
    assert DESIGNATED == {V1, VI}
    assert is_designated(V1) and is_designated(VI)
    assert not is_designated(VJ) and not is_designated(V0)


def test_lattice_laws_by_enumeration() -> None:
    for a in VALUES:
        assert conj(a, a) == a
        assert disj(a, a) == a
        for b in VALUES:
            assert conj(a, b) == conj(b, a)
            assert disj(a, b) == disj(b, a)
            assert conj(a, disj(a, b)) == a
            assert disj(a, conj(a, b)) == a
            for c in VALUES:
                assert conj(a, conj(b, c)) == conj(conj(a, b), c)
                assert disj(a, disj(b, c)) == disj(disj(a, b), c)
                assert conj(a, disj(b, c)) == disj(conj(a, b), conj(a, c))
                assert disj(a, conj(b, c)) == conj(disj(a, b), disj(a, c))


def test_lattice_bounds() -> None:
    for a in VALUES:
        assert conj(a, V1) == a
        assert disj(a, V0) == a
        assert conj(a, V0) == V0
        assert disj(a, V1) == V1
    # i and j are incomparable.
    assert conj(VI, VJ) == V0
    assert disj(VI, VJ) == V1


def test_evaluate_examples() -> None:
    assert evaluate(parse("~p"), {"p": V1}) == VI
    assert evaluate(parse("p & q"), {"p": VI, "q": VJ}) == V0
    assert evaluate(parse("p | ~~p"), {"p": VI}) == V1
    assert evaluate(parse("~(p | q)"), {"p": VJ, "q": V0}) == V1


def test_evaluate_unbound_variable() -> None:
    with pytest.raises(UnboundVariableError) as exc_info:
        evaluate(parse("p & q"), {"p": V1})
    assert exc_info.value.name == "q"


def test_point_evaluators_refuse_foreign_values() -> None:
    """An atom's value must be one the semantics codes: a matrix value for
    ``evaluate``, a truth set for ``rel_eval``."""
    with pytest.raises(TypeError, match="'p' has value '1'"):
        evaluate(parse("p"), {"p": "1"})
    with pytest.raises(TypeError, match="'q' has value"):
        rel_eval(OPTIONS["O1"], parse("p & q"), {"p": correspond(OPTIONS["O1"], V1), "q": V1})


def test_interpretations_cycle_last_variable_fastest() -> None:
    rows = list(interpretations(("p", "q")))
    assert len(rows) == 16
    assert rows[0] == {"p": V1, "q": V1}
    assert rows[1] == {"p": V1, "q": VI}
    assert rows[4] == {"p": VI, "q": V1}
    assert rows[15] == {"p": V0, "q": V0}


def test_truth_table_rows() -> None:
    table = truth_table(parse("p & q"))
    assert len(table) == 16
    env, value = table[0]
    assert env == {"p": V1, "q": V1} and value == V1
    # Row order follows the canonical value order on each variable.
    assert [v for _, v in table[:4]] == [V1, VI, VJ, V0]


def test_truth_table_of_closed_schema() -> None:
    assert [v for _, v in truth_table(parse("p | ~~p"))] == [V1] * 4
    assert [v for _, v in truth_table(parse("p & ~~p"))] == [V0] * 4


def test_truth_table_cap() -> None:
    wide = parse(" | ".join(f"v{k}" for k in range(11)))
    with pytest.raises(CapExceededError) as exc_info:
        truth_table(wide)
    assert exc_info.value.count == 11
    assert exc_info.value.cap == 10
    # An explicit cap replaces the default in both directions.
    five = parse("a | b | c | d | e")
    with pytest.raises(CapExceededError):
        truth_table(five, cap=4)
    assert len(truth_table(five, cap=5)) == 4**5


@settings(max_examples=60)
@given(formula_strategy(max_leaves=8))
def test_schema_facts(a) -> None:
    """The four closed schemas take constant values under every interpretation."""
    taut = Or(a, Neg(Neg(a)))
    for env in interpretations(variables(a)):
        assert evaluate(taut, env) == V1
        assert evaluate(Neg(taut), env) == VI
        assert evaluate(And(a, Neg(Neg(a))), env) == V0
        assert evaluate(Neg(And(a, Neg(Neg(a)))), env) == VJ


def test_consequence_valid_examples() -> None:
    for text in (
        "q |- p | ~~p",
        "p & q |- p",
        "p |- p | q",
        "p & ~~p |- q",
        "|- p | ~~p",
    ):
        verdict = is_consequence(parse_sequent(text))
        assert verdict.valid, text
        assert verdict.witness is None


def test_consequence_short_circuits() -> None:
    verdict = is_consequence(parse_sequent("p & ~p |- q"))
    assert not verdict.valid
    assert verdict.checked < 16


def test_valid_sequent_checks_all_rows() -> None:
    verdict = is_consequence(parse_sequent("p |- p"))
    assert verdict.valid
    assert verdict.checked == 4


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("q |- p | ~p", {"p": V0, "q": V1}),
        ("p & ~p |- q", {"p": V1, "q": V0}),
        ("~~p |- p", {"p": V0}),
        ("p |- ~~p", {"p": V1}),
    ],
)
def test_countermodel_witnesses(text: str, expected: dict[str, Value]) -> None:
    witness = countermodel(parse_sequent(text))
    assert witness == expected
    # The witness really does refute the sequent.
    sequent = parse_sequent(text)
    assert all(is_designated(evaluate(p, witness)) for p in sequent.premises)
    assert not is_designated(evaluate(sequent.conclusion, witness))


def test_countermodel_none_for_valid_sequent() -> None:
    assert countermodel(parse_sequent("p |- p")) is None
    assert countermodel(parse_sequent("|- p | ~~p")) is None


def test_witness_scan_order_prefers_designated_values() -> None:
    assert WITNESS_ORDER == (V1, VI, V0, VJ)
    assert CANONICAL_ORDER == (V1, VI, VJ, V0)
    # ~p |- q has many countermodels.  p=1 already designates ~p, and the
    # first undesignated value tried for q is 0, so the scan stops there.
    assert countermodel(parse_sequent("~p |- q")) == {"p": V1, "q": V0}


def test_designation_level_de_morgan_laws() -> None:
    for left, right in (
        ("~(p & q)", "~p & ~q"),
        ("~(p | q)", "~p | ~q"),
    ):
        assert is_consequence(parse_sequent(f"{left} |- {right}")).valid
        assert is_consequence(parse_sequent(f"{right} |- {left}")).valid


def test_value_level_de_morgan_failure() -> None:
    env = {"p": VI, "q": VJ}
    assert evaluate(parse("~(p & q)"), env) == VJ
    assert evaluate(parse("~p & ~q"), env) == V0
    assert evaluate(parse("~(p & q)"), env) != evaluate(parse("~p & ~q"), env)


def test_raw_tables_are_total() -> None:
    assert set(NEG) == set(VALUES)
    assert set(AND) == set(OR) == {(a, b) for a in VALUES for b in VALUES}
