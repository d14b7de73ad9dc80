"""The block engine against the recursive reference evaluators.

Consequence, truth tables and option comparison evaluate whole blocks of
interpretations as two bitplanes; ``evaluate``, ``rel_eval``,
``rel_designated`` and the option tables run the same clauses on single
bits.  These tests pin each clause set to its golden connective table (so,
by induction on formulas, the engine computes the semantics the tables
define) and check that verdicts, witnesses, ``checked`` counts, rows,
mismatches, single values and unbound atoms equal those of the reference
evaluators and scans in ``helpers``, including across block boundaries
and at the edge of the narrow first block a refutation scan tries, under
the matrix, O1-O4 and all 24 clause-and-preservation readings.  Clause
sets are plain values that compare and hash.  The compiled DAG must equal
that of the reference compile walk.
"""

from __future__ import annotations

import importlib.resources
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl4.engine import BLOCK_VARS, PROBE_VARS, Program
from cnl4.formula import (
    And,
    Atom,
    Formula,
    Neg,
    Or,
    Sequent,
    format_formula,
    parse,
    parse_sequent,
    variables,
)
from cnl4.matrix import (
    BITS,
    CANONICAL_ORDER,
    WITNESS_ORDER,
    UnboundVariableError,
    Value,
    evaluate,
    interpretations,
    is_consequence,
    matrix_clauses,
    render_table_lines,
    truth_table,
)
from cnl4.relational import (
    FDE_ORDER,
    OPTIONS,
    TRUTH_SETS,
    FalsityStyle,
    NegFalsityClause,
    NegTruthClause,
    OptionReading,
    Preservation,
    TruthSet,
    check_option_equivalence,
    correspond,
    option_clauses,
    option_tables,
    rel_consequence,
    rel_designated,
    rel_eval,
)
from helpers import (
    formula_strategy,
    reference_consequence,
    reference_evaluate,
    reference_mismatches,
    reference_program,
    reference_release,
    reference_rel_designated,
    reference_rel_eval,
)

SEMANTICS = (None, *OPTIONS)
X, Y = Atom("x"), Atom("y")
FDE_OF_SET = {s: v for v, s in TRUTH_SETS.items()}

#: Every combination of negation clauses, falsity style and preservation,
#: on O1's value map: the clause sets of O1-O4 and 20 others.
READINGS = [
    OPTIONS["O1"]._replace(id="/".join(c.name for c in choice),
                           neg_truth=choice[0], neg_falsity=choice[1],
                           falsity_style=choice[2], preservation=choice[3])
    for choice in itertools.product(NegTruthClause, NegFalsityClause, FalsityStyle,
                                    Preservation)]
#: The matrix (``None``), O1-O4 and the 24 readings, for the differential
#: tests that draw a semantics.
EVERY_READING = (None, *OPTIONS.values(), *READINGS)


def engine_consequence(s: Sequent, option: OptionReading | None):
    if option is None:
        verdict = is_consequence(s)
    else:
        verdict = rel_consequence(option, s)
    return verdict.valid, verdict.witness, verdict.checked


def plane_table_lines(clauses, order, decode) -> list[str]:
    """The 36 table entries the clause set computes, scanning ``order``
    (whose codes ``clauses`` carries) and decoding bit pairs with ``decode``."""
    def values(f):
        program = Program([f])
        [(_, [(p1, p0)])] = program.blocks(clauses)
        return [decode[(bool(p1 >> k & 1), bool(p0 >> k & 1))]
                for k in range(program.block_size)]

    neg = dict(zip(order, values(Neg(X))))
    pairs = [(a, b) for a in order for b in order]
    conj = dict(zip(pairs, values(And(X, Y))))
    disj = dict(zip(pairs, values(Or(X, Y))))
    return render_table_lines(neg, conj, disj, order)


def golden(name: str) -> list[str]:
    return importlib.resources.files("cnl4.data").joinpath(name).read_text().splitlines()


def test_matrix_clauses_match_golden_table() -> None:
    decode = {bits: v for v, bits in BITS.items()}
    lines = plane_table_lines(matrix_clauses(CANONICAL_ORDER), CANONICAL_ORDER, decode)
    assert lines == golden("matrix_tables.txt")


@pytest.mark.parametrize("option_id", OPTIONS)
def test_option_clauses_match_golden_table(option_id) -> None:
    clauses = option_clauses(OPTIONS[option_id], CANONICAL_ORDER)._replace(
        codes=tuple((TRUTH_SETS[w].has1, TRUTH_SETS[w].has0) for w in FDE_ORDER))
    decode = {(s.has1, s.has0): w for s, w in FDE_OF_SET.items()}
    assert plane_table_lines(clauses, FDE_ORDER, decode) == golden(f"option_{option_id}.txt")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=8), max_size=3),
    formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=8),
    st.sampled_from(EVERY_READING),
)
def test_consequence_equals_reference(premises, conclusion, option) -> None:
    s = Sequent(tuple(premises), conclusion)
    got = engine_consequence(s, option)
    expected = reference_consequence(s, option)
    assert got == expected
    if expected[1] is not None:
        assert list(got[1]) == list(expected[1])


@settings(max_examples=80, deadline=None)
@given(formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=10))
def test_truth_table_equals_reference(f) -> None:
    expected = [(inter, reference_evaluate(f, inter)) for inter in interpretations(variables(f))]
    assert truth_table(f) == expected


@settings(max_examples=200, deadline=None)
@given(formula_strategy(max_leaves=10), st.sampled_from(EVERY_READING),
       st.dictionaries(st.sampled_from(("p", "q", "r")), st.sampled_from(CANONICAL_ORDER)))
def test_point_evaluation_equals_reference(f, option, inter) -> None:
    """``evaluate`` and ``rel_eval`` at one interpretation, which may leave
    atoms unbound: the same value, or the same first unbound atom named."""
    if option is None:
        engine, reference, env = evaluate, reference_evaluate, inter
    else:
        env = {name: correspond(option, v) for name, v in inter.items()}

        def engine(f, env):
            return rel_eval(option, f, env)

        def reference(f, env):
            return reference_rel_eval(option, f, env)

    def outcome(evaluator):
        try:
            return "value", evaluator(f, env)
        except UnboundVariableError as exc:
            return "unbound", exc.name

    assert outcome(engine) == outcome(reference)


def test_clause_sets_are_comparable_data() -> None:
    """A reading's clauses are a plain value: O1's equal the matrix's in
    either scan order, every clause set hashes, and the 24 readings give 24
    distinct sets."""
    for order in (CANONICAL_ORDER, WITNESS_ORDER):
        assert option_clauses(OPTIONS["O1"], order) == matrix_clauses(order)
        for option in (*OPTIONS.values(), *READINGS):
            hash(option_clauses(option, order))
        hash(matrix_clauses(order))
    assert len({option_clauses(r, WITNESS_ORDER) for r in READINGS}) == len(READINGS) == 24


@pytest.mark.parametrize("option", READINGS, ids=[r.id for r in READINGS])
def test_designation_and_option_tables_equal_reference(option) -> None:
    for s in TRUTH_SETS.values():
        assert rel_designated(option, s) is reference_rel_designated(option, s)
    tables = option_tables(option)
    for w in FDE_ORDER:
        x = {"x": TRUTH_SETS[w]}
        assert TRUTH_SETS[tables.neg[w]] == reference_rel_eval(option, Neg(X), x)
        for v in FDE_ORDER:
            xy = {**x, "y": TRUTH_SETS[v]}
            assert TRUTH_SETS[tables.conj[(w, v)]] == reference_rel_eval(option, And(X, Y), xy)
            assert TRUTH_SETS[tables.disj[(w, v)]] == reference_rel_eval(option, Or(X, Y), xy)


@settings(max_examples=60, deadline=None)
@given(formula_strategy(max_leaves=8), st.sampled_from(tuple(OPTIONS)),
       st.sampled_from(tuple(FalsityStyle)))
def test_option_mismatches_equal_reference(f, option_id, style) -> None:
    """A reading whose falsity style may be wrong: both routes still report
    the same mismatches, in scan order."""
    option = OPTIONS[option_id]._replace(falsity_style=style)
    report = check_option_equivalence(option, f)
    assert list(report.mismatches) == reference_mismatches(option, f)
    assert report.checked == 4 ** len(variables(f))


@pytest.mark.parametrize("n", [BLOCK_VARS + 1, BLOCK_VARS + 2])
@pytest.mark.parametrize("option_id", SEMANTICS)
def test_late_countermodel_across_blocks(n, option_id) -> None:
    """``~~x & ~x`` is designated only when x is j, the last value of the
    witness order, so the first countermodel lies in the last quarter of
    the scan: x = j and every other variable 0, the first undesignated
    value."""
    others = [f"x{k}" for k in range(1, n)]
    s = parse_sequent(f"~~x & ~x |- {' | '.join(others)}")
    valid, witness, checked = engine_consequence(s, OPTIONS.get(option_id))
    j, zero = WITNESS_ORDER.index(Value.VJ), WITNESS_ORDER.index(Value.V0)
    index = j * 4 ** (n - 1) + sum(zero * 4 ** k for k in range(n - 1))
    assert (valid, checked) == (False, index + 1)
    expected = {"x": Value.VJ, **{name: Value.V0 for name in others}}
    if option_id is not None:
        expected = {name: correspond(OPTIONS[option_id], v) for name, v in expected.items()}
    assert list(witness.items()) == list(expected.items())


@pytest.mark.parametrize("n", [BLOCK_VARS + 1, BLOCK_VARS + 2])
@pytest.mark.parametrize("option_id", SEMANTICS)
def test_valid_sequent_checks_every_block(n, option_id) -> None:
    names = [f"x{k}" for k in range(n)]
    s = parse_sequent(f"{' & '.join(names)} |- {names[-1]} | {names[0]}")
    assert engine_consequence(s, OPTIONS.get(option_id)) == (True, None, 4 ** n)


def test_shared_subformulas_compile_once() -> None:
    shared = parse("~(p & q)")
    program = Program([And(shared, Or(parse("~(p & q)"), shared)), shared])
    # p, q, p & q, ~(p & q), the disjunction and the conjunction
    assert len(program.nodes) == 6
    assert program.roots == [5, 3]
    assert program.names == ["p", "q"]


def test_deep_and_wide_formulas_do_not_recurse() -> None:
    """Compiling and evaluating are iterative, so nesting far beyond the
    interpreter's recursion limit is fine (the parser bounds it for text),
    at one interpretation as over all of them; a formula built by doubling
    one object is compiled in linear time."""
    deep = Atom("p")
    for _ in range(8000):
        deep = Neg(deep)
    assert is_consequence(Sequent((Atom("p"),), deep)).valid  # ~ has order 4
    chain = Atom("p")
    for _ in range(5000):
        chain = And(chain, Atom("q"))
    env = {"p": Value.VI, "q": Value.V1}
    assert evaluate(deep, env) == Value.VI
    assert evaluate(chain, env) == Value.VI
    for option in OPTIONS.values():
        rel_env = {name: correspond(option, v) for name, v in env.items()}
        assert rel_eval(option, deep, rel_env) == rel_env["p"]
        assert rel_eval(option, chain, rel_env) == rel_env["p"]
    doubled = Atom("p")
    for _ in range(200):
        doubled = And(doubled, doubled)
    assert len(Program([doubled]).nodes) == 201
    assert is_consequence(Sequent((doubled,), Atom("p"))).valid


#: The two ``~``-powers of ``x`` designated together exactly when ``x`` has
#: the value: ``x``, ``~x``, ``~~x`` and ``~~~x`` are designated for
#: {1, i}, {j, 1}, {0, j} and {i, 0}.
PIN = {Value.V1: (0, 1), Value.VI: (0, 3), Value.VJ: (1, 2), Value.V0: (2, 3)}
PROBE = 4 ** PROBE_VARS


def negations(f: Formula, k: int) -> Formula:
    for _ in range(k):
        f = Neg(f)
    return f


def everywhere(atoms: list[Atom]) -> Formula:
    """A formula over ``atoms``, in order, designated under every
    interpretation: a conjunction of excluded middles ``x | ~~x``."""
    f = Or(atoms[0], negations(atoms[0], 2))
    for x in atoms[1:]:
        f = And(f, Or(x, negations(x, 2)))
    return f


def pins(pinned: dict[Atom, Value]) -> list[Formula]:
    """Premises designated together exactly when each atom has its value."""
    return [negations(x, k) for x, v in pinned.items() for k in PIN[v]]


def countermodel_at(index: int | None, n: int) -> Sequent:
    """A sequent over ``x0`` ... ``x{n-1}`` whose first countermodel in
    witness order is interpretation ``index``, or a valid one for ``None``.

    The first premise fixes the scan order; the others pin each variable
    whose digit in ``index`` is not 0, and no interpretation designates
    the conclusion ``x & ~~x``, so the first countermodel has every other
    digit 0.  The valid sequent's first two premises are never designated
    together, which keeps the reference scan cheap.
    """
    atoms = [Atom(f"x{k}") for k in range(n)]
    if index is None:
        return Sequent((atoms[0], negations(atoms[0], 2), *atoms[1:]), atoms[0])
    digits = [(index >> 2 * (n - 1 - k)) & 3 for k in range(n)]
    pinned = {x: WITNESS_ORDER[d] for x, d in zip(atoms, digits) if d}
    return Sequent((everywhere(atoms), *pins(pinned)), And(atoms[0], negations(atoms[0], 2)))


def assert_equals_reference(s: Sequent, option: OptionReading | None) -> tuple:
    expected = reference_consequence(s, option)
    got = engine_consequence(s, option)
    assert got == expected
    if expected[1] is not None:
        assert list(got[1]) == list(expected[1])
    return expected


@pytest.mark.parametrize("n", [5, 8, BLOCK_VARS + 1])
@pytest.mark.parametrize("index", [PROBE - 1, PROBE, PROBE + 1, None],
                         ids=["last in probe", "first past probe", "second past probe", "valid"])
@pytest.mark.parametrize("option_id", SEMANTICS)
def test_probe_boundary_equals_reference(n, index, option_id) -> None:
    """Over more than PROBE_VARS variables a refutation scan tries the first
    4 ** PROBE_VARS interpretations as a block of their own: a countermodel
    on either side of that block's edge, and a valid sequent, get the
    verdict, witness and ``checked`` of the plain scan."""
    expected = assert_equals_reference(countermodel_at(index, n), OPTIONS.get(option_id))
    assert expected[2] == (4 ** n if index is None else index + 1)


def past_the_probe(reading: OptionReading, n: int) -> Sequent:
    """A sequent over ``x0`` ... ``x{n-1}`` whose first countermodel under
    ``reading`` has ``x0`` past scan digit 0 (t), so lies past the probe
    block: for falsity the premises ``x0`` ... need 0, which t lacks;
    otherwise the conclusion joins every variable with the connective whose
    value is undesignated only when every argument's is."""
    atoms = [Atom(f"x{k}") for k in range(n)]
    if reading.preservation is Preservation.FALSITY:
        return Sequent(tuple(atoms[:-1]), atoms[-1])
    by_and = (reading.preservation is Preservation.NON_FALSITY
              and reading.falsity_style is FalsityStyle.BOTH)
    joined = atoms[0]
    for x in atoms[1:]:
        joined = And(joined, x) if by_and else Or(joined, x)
    return Sequent((), joined)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("reading", READINGS, ids=[r.id for r in READINGS])
def test_every_reading_scans_probe_and_full_block(reading, n) -> None:
    """Each reading's designation runs in the probe block, which holds no
    countermodel, and then in a full block, which does."""
    valid, _, checked = assert_equals_reference(past_the_probe(reading, n), reading)
    assert not valid and checked > PROBE


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 7), st.data())
def test_five_to_seven_variables_equal_reference(n, data) -> None:
    """Random sequents over 5-7 variables, some with pinned variables, so
    that the first countermodel often lies past the first block, under the
    matrix, an option or any of the 24 readings."""
    names = tuple(f"x{k}" for k in range(n))
    atoms = [Atom(name) for name in names]
    pinned = data.draw(st.dictionaries(st.sampled_from(atoms), st.sampled_from(WITNESS_ORDER),
                                       max_size=2))
    formulas = formula_strategy(atoms=names, max_leaves=8)
    premises = data.draw(st.lists(formulas, max_size=2))
    s = Sequent((everywhere(atoms), *pins(pinned), *premises), data.draw(formulas))
    assert_equals_reference(s, data.draw(st.sampled_from(EVERY_READING)))


def unshared(f: Formula) -> Formula:
    """A structurally equal copy of ``f`` that shares no node object."""
    if isinstance(f, Atom):
        return Atom(f.name)
    return type(f)(*map(unshared, f[1:]))


@settings(max_examples=150, deadline=None)
@given(st.lists(formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=12),
                min_size=1, max_size=3))
def test_compile_equals_reference_program(formulas) -> None:
    """The same nodes, roots and names as the ``isinstance`` walk, whether
    equal subformulas are one object (hypothesis reuses atoms, ``parse``
    shares within a text, a formula may repeat or be doubled) or not."""
    for batch in _batches(formulas):
        program = Program(batch)
        assert (program.nodes, program.roots, program.names) == reference_program(batch)


def _batches(formulas: list[Formula]) -> list[list[Formula]]:
    return [formulas, [*formulas, *formulas[::-1]], [And(f, f) for f in formulas],
            [unshared(f) for f in formulas] + formulas,
            [parse(format_formula(f)) for f in formulas]]


@settings(max_examples=150, deadline=None)
@given(st.lists(formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=12),
                min_size=1, max_size=3))
def test_release_lists_equal_reference(formulas) -> None:
    """Each node releases the planes it reads last, roots never, as the
    three-sets-per-node walk found them."""
    for batch in _batches(formulas):
        program = Program(batch)
        release = program._release
        assert [set(r) for r in release] == reference_release(program)
        assert all(len(r) == len(set(r)) for r in release)


@pytest.mark.parametrize("bad", ["p", TruthSet(True, False), None],
                         ids=["str", "truth set", "None"])
def test_compile_refuses_a_non_formula(bad) -> None:
    f = Or(Atom("q"), And(Atom("p"), bad))
    with pytest.raises(TypeError) as reference_error:
        reference_program([f])
    with pytest.raises(TypeError) as error:
        Program([f])
    assert str(error.value) == str(reference_error.value) == f"not a formula: {bad!r}"
