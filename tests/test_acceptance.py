"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Each test computes its verdict, prints the line, then asserts, so a
failure still leaves the line in the output.

Criteria, in order:
 1. matrix table fidelity against the shipped golden file
 2. the four always-valid schemas, plus their value claims under 500
    generated formulas
 3. the four invalid sequents with their exact countermodels
 4. 32-point verification of the defining delta/C terms + corruption sweep
 5. unary clone closure: exactly 256 tables, witnesses re-evaluate, < 5 s
 6. completeness criterion for &, with the reducibility cross-check
 7. option/matrix equivalence on 200 formulas and 100 sequents
 8. option table fidelity against the four golden files
 9. natural deduction: corpus, curated search list, discharge corruptions
10. de Morgan laws: designation-valid both ways, value-level failure at (i,j)
11. exclusions documented (infinitary metatheory), with their finite stand-ins
"""

from __future__ import annotations

import importlib.resources
import random
import time

import pytest

from cnl4.fc import (
    AND_TABLE,
    DEFINING_TERMS,
    BinaryTable,
    UnaryTable,
    delta_c_point_checks,
    fn_of_unary_term,
    is_essentially_binary,
    is_surjective,
    slupecki_check,
    unary_clone_closure,
    verify_delta_c,
)
from cnl4.formula import And, Atom, Neg, Or, parse, parse_sequent, variables
from cnl4.matrix import (
    CANONICAL_ORDER,
    Value,
    countermodel,
    evaluate,
    interpretations,
    is_consequence,
    matrix_table_lines,
)
from cnl4.nd import (
    Derivation,
    DerivationError,
    check,
    corpus,
    hyp,
    or_e,
    search,
    soundness_check,
)
from cnl4.relational import (
    OPTIONS,
    correspond,
    get_option,
    option_table_lines,
    rel_consequence,
    rel_eval,
)
from helpers import is_unary_reducible, random_formula, random_sequent

V1, VI, VJ, V0 = Value.V1, Value.VI, Value.VJ, Value.V0


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} — {detail}"
    print(line)
    assert ok, line


def _golden_lines(name: str) -> list[str]:
    text = importlib.resources.files("cnl4.data").joinpath(name).read_text()
    return text.splitlines()


def test_criterion_01_matrix_table_fidelity() -> None:
    produced = matrix_table_lines()
    golden = _golden_lines("matrix_tables.txt")
    ok = produced == golden and len(produced) == 36
    _report(1, ok, f"matrix tables match golden file ({len(produced)}/36 entries)")


def test_criterion_02_valid_schemas_and_value_claims() -> None:
    schemas_ok = True
    for text in (
        "q |- p | ~~p",
        "q |- ~(p | ~~p)",
        "p & ~~p |- q",
        "~(p & ~~p) |- q",
    ):
        verdict = is_consequence(parse_sequent(text))
        schemas_ok &= verdict.valid and verdict.checked == 16

    rng = random.Random(20260815)
    samples = 500
    values_ok = True
    for _ in range(samples):
        a = random_formula(rng, max_depth=5)
        for env in interpretations(variables(a)):
            values_ok &= evaluate(Or(a, Neg(Neg(a))), env) == V1
            values_ok &= evaluate(Neg(Or(a, Neg(Neg(a)))), env) == VI
            values_ok &= evaluate(And(a, Neg(Neg(a))), env) == V0
            values_ok &= evaluate(Neg(And(a, Neg(Neg(a)))), env) == VJ
        if not values_ok:
            break
    _report(
        2,
        schemas_ok and values_ok,
        f"4 schemas valid over 16 interpretations each; value claims hold "
        f"for {samples} generated formulas",
    )


def test_criterion_03_invalid_sequents_with_exact_countermodels() -> None:
    expected = [
        ("q |- p | ~p", {"p": V0, "q": V1}),
        ("p & ~p |- q", {"p": V1, "q": V0}),
        ("~~p |- p", {"p": V0}),
        ("p |- ~~p", {"p": V1}),
    ]
    ok = True
    for text, witness in expected:
        ok &= countermodel(parse_sequent(text)) == witness
    _report(3, ok, "4 non-consequences refuted with the exact countermodels")


def test_criterion_04_delta_c_verification_and_corruption() -> None:
    report = verify_delta_c()
    base_ok = report.ok and len(report.checks) == 32

    tables = {n: fn_of_unary_term(t) for n, t in DEFINING_TERMS.items()}
    corruption_ok = True
    for name in (n for n in tables if n != "bool_neg"):
        good = tables[name]
        for position in range(4):
            wrong = list(good.outputs)
            wrong[position] = next(
                v for v in CANONICAL_ORDER if v != wrong[position]
            )
            corrupted = dict(tables)
            corrupted[name] = UnaryTable(tuple(wrong))
            failures = [
                c for c in delta_c_point_checks(corrupted) if not c.ok
            ]
            corruption_ok &= (
                len(failures) == 1
                and failures[0].term_name == name
                and failures[0].argument == CANONICAL_ORDER[position]
            )
    _report(
        4,
        base_ok and corruption_ok,
        "32/32 point checks pass; every single-entry corruption (32 cases) "
        "is caught",
    )


@pytest.fixture(scope="module")
def timed_closure():
    start = time.monotonic()
    result = unary_clone_closure()
    return result, time.monotonic() - start


def test_criterion_05_clone_closure(timed_closure) -> None:
    result, elapsed = timed_closure
    size_ok = result.size == 256
    witnesses_ok = all(
        fn_of_unary_term(term) == table
        for table, term in result.witnesses.items()
    )
    time_ok = elapsed < 5.0
    _report(
        5,
        size_ok and witnesses_ok and time_ok,
        f"closure fixpoint at {result.size} tables in {elapsed:.2f}s; all "
        f"witnesses re-evaluate",
    )


def test_criterion_06_completeness_criterion() -> None:
    report = slupecki_check()
    criterion_ok = (
        report.unary_complete
        and report.surjective
        and report.essentially_binary
        and report.functionally_complete
        and is_surjective(AND_TABLE)
    )

    rng = random.Random(1712)
    sampled = [
        BinaryTable(tuple(rng.choice(CANONICAL_ORDER) for _ in range(16)))
        for _ in range(300)
    ]
    sampled.append(AND_TABLE)
    agreement_ok = all(
        is_essentially_binary(f) == (not is_unary_reducible(f))
        for f in sampled
    )
    _report(
        6,
        criterion_ok and agreement_ok,
        "& is surjective and essentially binary (verdict: functionally "
        "complete); dependence check agrees with the reducibility oracle "
        "on 301 sampled tables",
    )


def test_criterion_07_option_equivalence() -> None:
    rng = random.Random(88)
    options = [get_option(option_id) for option_id in OPTIONS]

    commutation_ok = True
    formula_count = 200
    for _ in range(formula_count):
        f = random_formula(rng, max_depth=5)
        for env in interpretations(variables(f)):
            for option in options:
                rel_env = {
                    name: correspond(option, v) for name, v in env.items()
                }
                commutation_ok &= rel_eval(option, f, rel_env) == correspond(
                    option, evaluate(f, env)
                )

    verdict_ok = True
    sequent_count = 100
    for _ in range(sequent_count):
        s = random_sequent(rng, max_premises=2, max_depth=3)
        expected = is_consequence(s).valid
        for option in options:
            verdict_ok &= rel_consequence(option, s).valid == expected

    _report(
        7,
        commutation_ok and verdict_ok,
        f"bijection commutation on {formula_count} formulas and verdict "
        f"equality on {sequent_count} sequents, all four options",
    )


def test_criterion_08_option_table_fidelity() -> None:
    ok = True
    for option_id in OPTIONS:
        produced = option_table_lines(get_option(option_id))
        ok &= produced == _golden_lines(f"option_{option_id}.txt")
        ok &= len(produced) == 36
    _report(8, ok, "O1-O4 tables match their golden files entry-for-entry")


def test_criterion_09_natural_deduction() -> None:
    corpus_ok = all(soundness_check(e.derivation) for e in corpus())

    curated = (
        "|- p | ~~p",
        "p, ~~p |- q",
        "~p, ~q |- ~(p & q)",
        "~(p & q) |- ~p",
        "~p |- ~(p | q)",
        "~(p | q) |- ~p | ~q",
    )
    search_ok = True
    for text in curated:
        s = parse_sequent(text)
        d = search(s, depth=4)
        found = d is not None
        if found:
            seq = check(d)
            found = (
                seq.conclusion == s.conclusion
                and seq.open_assumptions <= set(s.premises)
            )
        search_ok &= found

    # Discharge corruptions: each variant must be rejected by check().
    p, q = Atom("p"), Atom("q")
    good = next(e for e in corpus() if e.name == "deMorgan-disj-to-nor").derivation
    swapped = Derivation(
        good.rule, good.conclusion, good.premises, ("h3", "h2"), None
    )
    mismatched = or_e(
        hyp("h1", Or(p, q)), hyp("h2", p), hyp("h3", p), ("h2", "h3")
    )
    leaked = or_e(
        hyp("h2", Or(p, p)), hyp("h2", p), hyp("h3", p), ("h2", "h3")
    )
    corruption_ok = True
    for bad in (swapped, mismatched, leaked):
        try:
            check(bad)
            corruption_ok = False
        except DerivationError:
            pass

    _report(
        9,
        corpus_ok and search_ok and corruption_ok,
        f"{len(corpus())} corpus derivations sound; curated 6 sequents "
        f"solved at depth 4; 3 discharge corruptions rejected",
    )


def test_criterion_10_de_morgan() -> None:
    designation_ok = True
    for left, right in (
        ("~(p & q)", "~p & ~q"),
        ("~(p | q)", "~p | ~q"),
    ):
        designation_ok &= is_consequence(parse_sequent(f"{left} |- {right}")).valid
        designation_ok &= is_consequence(parse_sequent(f"{right} |- {left}")).valid

    env = {"p": VI, "q": VJ}
    conj_differs = evaluate(parse("~(p & q)"), env) != evaluate(
        parse("~p & ~q"), env
    )
    disj_differs = evaluate(parse("~(p | q)"), env) != evaluate(
        parse("~p | ~q"), env
    )
    _report(
        10,
        designation_ok and conj_differs and disj_differs,
        "both de Morgan equivalences designation-valid in both directions; "
        "value-level equality fails at (i, j)",
    )


def test_criterion_11_documented_exclusions() -> None:
    # The general completeness theorem (over arbitrary infinite premise
    # sets) and Post-style completeness are not desk-checkable artifacts.
    # Their finite stand-ins must exist: the clone reaches every unary
    # function (criteria 5-6) and bounded search derives the curated list
    # one-sidedly (criterion 9).
    stand_ins_ok = (
        slupecki_check().functionally_complete
        and search(parse_sequent("|- p | ~~p"), depth=4) is not None
    )
    _report(
        11,
        stand_ins_ok,
        "infinitary metatheory excluded by design; finite stand-ins "
        "(criteria 5-6, 9) are in place",
    )
