"""Functional-completeness tests.

Three layers: point verification of the defining terms (with corruption
detection), the clone closure of {x, ~x} reaching all 256 unary tables, and
the two-condition completeness criterion instantiated with the conjunction
table.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnl4.formula import Neg, format_formula, parse, substitute, variables
from cnl4.matrix import CANONICAL_ORDER, NEG, Value, evaluate
from cnl4.fc import (
    AND_TABLE,
    BOOLEAN_NEG,
    DEFINING_TERMS,
    IDENTITY_TABLE,
    NEG_TABLE,
    OR_TABLE,
    X,
    BinaryTable,
    ReservedVariableError,
    UnaryTable,
    binary_table,
    boolean_neg,
    constant_table,
    delta_c_point_checks,
    depends_on_left,
    depends_on_right,
    find_term_for_unary,
    fn_of_unary_term,
    indicator_table,
    is_essentially_binary,
    is_surjective,
    slupecki_check,
    unary_clone_closure,
    unary_table,
    verify_delta_c,
)
from helpers import all_unary_tables, is_unary_reducible

V1, VI, VJ, V0 = Value.V1, Value.VI, Value.VJ, Value.V0
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Tables and term tabulation


def test_unary_table_apply_and_str() -> None:
    t = unary_table(lambda v: NEG[v])
    assert t.apply(V1) == VI
    assert str(t) == "1:i,i:0,j:1,0:j"


def test_binary_table_is_row_major() -> None:
    assert AND_TABLE.apply(VI, VJ) == V0
    assert AND_TABLE.outputs[1 * 4 + 2] == V0
    assert OR_TABLE.apply(VI, VJ) == V1


def test_all_unary_tables_enumerates_the_function_space() -> None:
    tables = all_unary_tables()
    assert len(tables) == 256
    assert len(set(tables)) == 256
    assert IDENTITY_TABLE in tables and NEG_TABLE in tables


@pytest.mark.parametrize(
    ("text", "outputs"),
    [
        ("x", (V1, VI, VJ, V0)),
        ("~x", (VI, V0, V1, VJ)),
        ("x | ~~x", (V1, V1, V1, V1)),
        ("x & ~~x", (V0, V0, V0, V0)),
        ("~(x | ~~x)", (VI, VI, VI, VI)),
        ("~(x & ~~x)", (VJ, VJ, VJ, VJ)),
    ],
)
def test_fn_of_unary_term_examples(text: str, outputs) -> None:
    assert fn_of_unary_term(parse(text)) == UnaryTable(outputs)


def test_fn_of_unary_term_rejects_other_variables() -> None:
    with pytest.raises(ReservedVariableError, match="y"):
        fn_of_unary_term(parse("x & y"))
    with pytest.raises(ReservedVariableError):
        fn_of_unary_term(parse("p"))


def test_fn_of_unary_term_refuses_other_atoms_before_the_cap() -> None:
    # eleven atoms exceed matrix.DEFAULT_CAP; the reserved-variable refusal comes first
    term = parse(" & ".join(["x"] + [f"y{i}" for i in range(10)]))
    with pytest.raises(ReservedVariableError, match="y0, y1, y2"):
        fn_of_unary_term(term)


# ---------------------------------------------------------------------------
# The negation macro and the defining terms


def test_boolean_neg_expands_structurally() -> None:
    expanded = boolean_neg(Neg(X))
    assert variables(expanded) == ["x"]
    # Expansion at ~x equals composing the tables.
    base = fn_of_unary_term(BOOLEAN_NEG)
    assert fn_of_unary_term(expanded) == unary_table(
        lambda v: base.apply(NEG[v])
    )


def test_boolean_neg_table_by_step_by_step_composition() -> None:
    """Recompute the macro's table from raw table lookups, no evaluator."""
    from cnl4.matrix import AND, OR

    def neg3(v: Value) -> Value:
        return NEG[NEG[NEG[v]]]

    derived = []
    for v in CANONICAL_ORDER:
        u = AND[(v, neg3(v))]
        a = AND[(u, neg3(u))]
        b = OR[(u, neg3(u))]
        c = AND[(NEG[NEG[a]], b)]
        derived.append(neg3(c))
    assert tuple(derived) == (V0, V0, V1, V1)
    assert fn_of_unary_term(BOOLEAN_NEG) == UnaryTable((V0, V0, V1, V1))


def test_defining_terms_mention_only_x() -> None:
    for name, term in DEFINING_TERMS.items():
        assert variables(term) == ["x"], name


def test_defining_terms_print_as_recorded() -> None:
    """Pin each term's structure, not only its table: an equivalent but
    different term would pass every table check."""
    recorded = json.loads((DATA / "fc_defining_terms.json").read_text(encoding="utf-8"))
    assert list(DEFINING_TERMS) == list(recorded)
    for name, term in DEFINING_TERMS.items():
        assert format_formula(term) == recorded[name], name
        assert parse(recorded[name]) == term, name


def test_verify_delta_c_passes_all_32_points() -> None:
    report = verify_delta_c()
    assert report.ok
    assert len(report.checks) == 32
    assert report.failures == []
    assert report.bool_neg_table == UnaryTable((V0, V0, V1, V1))


def test_delta_terms_tabulate_indicators() -> None:
    for name, value in (
        ("delta_1", V1),
        ("delta_i", VI),
        ("delta_j", VJ),
        ("delta_0", V0),
    ):
        assert fn_of_unary_term(DEFINING_TERMS[name]) == indicator_table(value)


def test_constant_terms_tabulate_constants() -> None:
    for name, value in (
        ("C_1", V1),
        ("C_i", VI),
        ("C_j", VJ),
        ("C_0", V0),
    ):
        assert fn_of_unary_term(DEFINING_TERMS[name]) == constant_table(value)


def test_point_checks_catch_any_single_corruption() -> None:
    """Corrupting any one entry of any delta/C table trips exactly the
    check for that (term, argument) pair."""
    tables = {
        name: fn_of_unary_term(term) for name, term in DEFINING_TERMS.items()
    }
    checked_names = [n for n in tables if n != "bool_neg"]
    for name in checked_names:
        good = tables[name]
        for position in range(4):
            wrong = list(good.outputs)
            wrong[position] = next(
                v for v in CANONICAL_ORDER if v != good.outputs[position]
            )
            corrupted = dict(tables)
            corrupted[name] = UnaryTable(tuple(wrong))
            checks = delta_c_point_checks(corrupted)
            bad = [c for c in checks if not c.ok]
            assert len(bad) == 1
            assert bad[0].term_name == name
            assert bad[0].argument == CANONICAL_ORDER[position]


# ---------------------------------------------------------------------------
# Clone closure


@pytest.fixture(scope="module")
def closure():
    return unary_clone_closure()


def test_closure_reaches_every_unary_function(closure) -> None:
    assert closure.size == 256
    assert set(closure.witnesses) == set(all_unary_tables())
    assert closure.rounds > 0


def test_closure_witnesses_reevaluate_to_their_tables(closure) -> None:
    for table, term in closure.witnesses.items():
        assert fn_of_unary_term(term) == table


def test_closure_runs_quickly_and_deterministically(closure) -> None:
    start = time.monotonic()
    fresh = unary_clone_closure()
    assert time.monotonic() - start < 5.0
    assert fresh.witnesses == closure.witnesses
    assert fresh.rounds == closure.rounds


def test_closure_seed_witnesses(closure) -> None:
    assert closure.witnesses[IDENTITY_TABLE] == X
    assert closure.witnesses[NEG_TABLE] == Neg(X)


def test_closure_is_deterministic(closure) -> None:
    # a second call gives the same witnesses in the same insertion order
    again = unary_clone_closure()
    assert list(again.witnesses.items()) == list(closure.witnesses.items())
    assert again.rounds == closure.rounds


def test_find_term_for_unary() -> None:
    assert find_term_for_unary(IDENTITY_TABLE) == X
    assert format_formula(find_term_for_unary(NEG_TABLE)) == "~x"
    double_neg = unary_table(lambda v: NEG[NEG[v]])
    term = find_term_for_unary(double_neg)
    assert term is not None
    assert fn_of_unary_term(term) == double_neg


def test_find_term_for_de_morgan_negation() -> None:
    # The involutive negation fixing i and j is definable.
    target = unary_table(
        lambda v: {V1: V0, VI: VI, VJ: VJ, V0: V1}[v]
    )
    term = find_term_for_unary(target)
    assert term is not None
    assert fn_of_unary_term(term) == target


# ---------------------------------------------------------------------------
# Essential binarity and the completeness criterion


def test_conjunction_and_disjunction_are_essentially_binary() -> None:
    for table in (AND_TABLE, OR_TABLE):
        assert depends_on_left(table)
        assert depends_on_right(table)
        assert is_essentially_binary(table)
        assert not is_unary_reducible(table)


def test_projections_and_constants_are_not_essentially_binary() -> None:
    left_proj = binary_table(lambda a, b: a)
    right_proj = binary_table(lambda a, b: b)
    const = binary_table(lambda a, b: VJ)
    for table in (left_proj, right_proj, const):
        assert not is_essentially_binary(table)
        assert is_unary_reducible(table)
    assert depends_on_left(left_proj) and not depends_on_right(left_proj)
    assert depends_on_right(right_proj) and not depends_on_left(right_proj)


def test_unary_composed_tables_are_reducible() -> None:
    g = unary_table(lambda v: NEG[NEG[v]])
    as_left = binary_table(lambda a, b: g.apply(a))
    as_right = binary_table(lambda a, b: g.apply(b))
    for table in (as_left, as_right):
        assert is_unary_reducible(table)
        assert not is_essentially_binary(table)


def _mirrored_scan(f: BinaryTable) -> tuple[bool, bool]:
    """Dependence on each coordinate, each by its own 64 comparisons."""
    values = CANONICAL_ORDER
    left = any(f.apply(a1, b) != f.apply(a2, b)
               for b in values for a1 in values for a2 in values)
    right = any(f.apply(a, b1) != f.apply(a, b2)
                for a in values for b1 in values for b2 in values)
    return left, right


def _on_one_side(g: UnaryTable, left: bool) -> BinaryTable:
    return binary_table(lambda a, b: g.apply(a if left else b))


# random tables nearly always depend on both sides, so one branch draws g(x) or g(y)
binary_tables = st.one_of(
    st.tuples(*[st.sampled_from(CANONICAL_ORDER)] * 16).map(BinaryTable),
    st.builds(_on_one_side, st.sampled_from(all_unary_tables()), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(binary_tables)
@example(AND_TABLE)
@example(OR_TABLE)
@example(binary_table(lambda a, b: a))
@example(binary_table(lambda a, b: b))
def test_dependence_agrees_with_the_mirrored_scan(table: BinaryTable) -> None:
    assert (depends_on_left(table), depends_on_right(table)) == _mirrored_scan(table)


def test_binarity_check_agrees_with_reducibility_oracle() -> None:
    rng = random.Random(2024)
    samples = [
        BinaryTable(tuple(rng.choice(CANONICAL_ORDER) for _ in range(16)))
        for _ in range(300)
    ]
    samples += [
        AND_TABLE,
        OR_TABLE,
        binary_table(lambda a, b: a),
        binary_table(lambda a, b: b),
        binary_table(lambda a, b: V1),
    ]
    for table in samples:
        assert is_essentially_binary(table) == (not is_unary_reducible(table))


def test_surjectivity() -> None:
    assert is_surjective(AND_TABLE)
    assert is_surjective(OR_TABLE)
    assert not is_surjective(binary_table(lambda a, b: V1))
    # Meet of the two middle values already reaches all four values.
    assert set(AND_TABLE.outputs) == set(CANONICAL_ORDER)


def test_slupecki_report() -> None:
    report = slupecki_check()
    assert report.closure_size == 256
    assert report.unary_complete
    assert report.binary_witness == "&"
    assert report.surjective
    assert report.essentially_binary
    assert report.functionally_complete


def test_composition_stays_within_reserved_variable() -> None:
    # Substituting x by a term in x keeps the term unary.
    inner = parse("~x | x")
    outer = parse("~~x")
    term = substitute(outer, "x", inner)
    assert variables(term) == ["x"]
    assert fn_of_unary_term(term) == unary_table(
        lambda v: NEG[NEG[evaluate(inner, {"x": v})]]
    )
