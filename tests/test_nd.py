"""Natural-deduction tests: checking, discharge discipline, search, JSON.

The metamorphic corruption tests take a derivation that checks and break it
in one targeted way (swap discharge labels, change the major premise, mutate
a leaf); every corruption must be rejected by check().
"""

from __future__ import annotations

import ast
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl4 import nd, prove
from cnl4.formula import (
    MAX_DEPTH,
    And,
    Atom,
    Neg,
    Or,
    ParseError,
    format_sequent,
    parse,
    parse_sequent,
    sequent_variables,
    subformulas,
)
from cnl4.matrix import DEFAULT_CAP, CapExceededError, is_consequence
from cnl4.nd import (
    DISCHARGING_RULES,
    MAX_PROOF_DEPTH,
    CheckedSequent,
    CorpusEntry,
    Derivation,
    DerivationError,
    ProofFormatError,
    Rule,
    and_e_l,
    and_e_r,
    and_i,
    check,
    corpus,
    derivation_sequent,
    from_json_dict,
    hyp,
    nn1,
    nn2,
    nor_e,
    or_e,
    or_i_l,
    render_derivation,
    soundness_check,
    to_json_dict,
)
from cnl4.prove import MAX_SEARCH_DEPTH, search
from helpers import (
    and_elim_chain,
    derivation_strategy,
    random_sequent,
    reference_check,
    reference_corpus,
    reference_search,
    rules_used,
    splittable_sequent_strategy,
)

P, Q = Atom("p"), Atom("q")


# ---------------------------------------------------------------------------
# check()


def test_check_axiom_leaf() -> None:
    seq = check(nn2(P))
    assert seq.open_assumptions == frozenset()
    assert seq.conclusion == Or(P, Neg(Neg(P)))


def test_check_hyp_leaf() -> None:
    seq = check(hyp("h1", P))
    assert seq.open_assumptions == {P}
    assert seq.conclusion == P


def test_check_collects_open_assumptions() -> None:
    d = nn1(hyp("h1", P), hyp("h2", Neg(Neg(P))), Q)
    seq = check(d)
    assert seq.open_assumptions == {P, Neg(Neg(P))}
    assert seq.conclusion == Q


def test_check_or_elimination_discharges() -> None:
    d = or_e(hyp("h1", Or(P, Q)), hyp("h2", P), hyp("h3", Q), ("h2", "h3"))
    # The branches conclude different formulas, so this must be rejected.
    with pytest.raises(DerivationError) as exc_info:
        check(d)
    assert exc_info.value.path == ()
    assert exc_info.value.rule is Rule.OR_E


def test_check_or_elimination_good() -> None:
    d = or_e(hyp("h1", Or(P, P)), hyp("h2", P), hyp("h3", P), ("h2", "h3"))
    seq = check(d)
    assert seq.open_assumptions == {Or(P, P)}
    assert seq.conclusion == P


def test_vacuous_discharge_is_allowed() -> None:
    # Neither branch uses its case hypothesis; the labels are still legal.
    d = or_e(hyp("h1", Or(P, Q)), nn2(P), nn2(P), ("h2", "h3"))
    seq = check(d)
    assert seq.open_assumptions == {Or(P, Q)}
    assert seq.conclusion == Or(P, Neg(Neg(P)))


def test_error_path_points_at_the_bad_node() -> None:
    bad = Derivation(Rule.AND_E_L, P, (hyp("h1", P),))
    wrapped = Derivation(Rule.AND_I, And(Q, P), (hyp("h2", Q), bad))
    with pytest.raises(DerivationError) as exc_info:
        check(wrapped)
    assert exc_info.value.path == (1,)
    assert exc_info.value.rule is Rule.AND_E_L
    assert "1" in str(exc_info.value)


@pytest.mark.parametrize(
    "bad",
    [
        # Conclusion does not match the rule schema.
        Derivation(Rule.AND_I, Or(P, Q), (hyp("h1", P), hyp("h2", Q))),
        # NN2 axiom with the wrong shape.
        Derivation(Rule.NN2, Or(P, Neg(P))),
        # NN1 whose second premise is not the double negation of the first.
        Derivation(Rule.NN1, Q, (hyp("h1", P), hyp("h2", Neg(P)))),
        # Eliminating a non-conjunction.
        Derivation(Rule.AND_E_L, P, (hyp("h1", Or(P, Q)),)),
        # OrI whose premise is not a disjunct of the conclusion.
        Derivation(Rule.OR_I_L, Or(P, Q), (hyp("h1", Q),)),
        # NAndI premises are not negations.
        Derivation(Rule.NAND_I, Neg(And(P, Q)), (hyp("h1", P), hyp("h2", Q))),
        # Wrong arity.
        Derivation(Rule.AND_I, And(P, Q), (hyp("h1", P),)),
        Derivation(Rule.HYP, P, (hyp("h1", P),), label="h2"),
        # Label on a non-hypothesis node.
        Derivation(Rule.NN2, Or(P, Neg(Neg(P))), label="h1"),
        # Missing label on a hypothesis.
        Derivation(Rule.HYP, P),
        # Discharge pair on a rule that cannot discharge.
        Derivation(Rule.AND_I, And(P, Q),
                   (hyp("h1", P), hyp("h2", Q)), discharge=("h1", "h2")),
        # Missing discharge pair on OrE.
        Derivation(Rule.OR_E, P,
                   (hyp("h1", Or(P, P)), hyp("h2", P), hyp("h3", P))),
    ],
)
def test_check_rejects_malformed_nodes(bad: Derivation) -> None:
    with pytest.raises(DerivationError):
        check(bad)


_OR_E_PREMISES = (hyp("h1", Or(P, P)), hyp("h2", P), hyp("h3", P))


@pytest.mark.parametrize(
    ("bad", "path", "rule", "message"),
    [
        pytest.param(Derivation("Bogus", P), (), None, "unknown rule 'Bogus'",
                     id="unknown-rule"),
        pytest.param(Derivation(Rule.HYP, P, label=""), (), Rule.HYP,
                     "hypothesis label must be a non-empty string", id="empty-label"),
        pytest.param(Derivation(Rule.AND_E_R, P, (hyp("h1", And(P, Q)),)), (), Rule.AND_E_R,
                     "conclusion must be q", id="andE-conclusion"),
        pytest.param(Derivation(Rule.OR_I_L, P, (hyp("h1", P),)), (), Rule.OR_I_L,
                     "conclusion must be a disjunction", id="orI-conclusion"),
        pytest.param(Derivation(Rule.NAND_I, Neg(And(Q, P)),
                                (hyp("h1", Neg(P)), hyp("h2", Neg(Q)))), (), Rule.NAND_I,
                     "conclusion must negate the conjunction of the premises' bodies",
                     id="nandI-conclusion"),
        pytest.param(Derivation(Rule.NAND_E_L, Neg(P), (hyp("h1", And(P, Q)),)), (),
                     Rule.NAND_E_L, "premise must be a negated conjunction", id="nandE-premise"),
        pytest.param(Derivation(Rule.NAND_E_R, Neg(P), (hyp("h1", Neg(And(P, Q))),)), (),
                     Rule.NAND_E_R, "conclusion must be ~q", id="nandE-conclusion"),
        pytest.param(Derivation(Rule.NOR_I_L, Neg(Or(P, Q)), (hyp("h1", P),)), (),
                     Rule.NOR_I_L, "premise must be a negation", id="norI-premise"),
        pytest.param(Derivation(Rule.NOR_I_L, Or(P, Q), (hyp("h1", Neg(P)),)), (),
                     Rule.NOR_I_L, "conclusion must be a negated disjunction",
                     id="norI-conclusion"),
        pytest.param(Derivation(Rule.NOR_I_R, Neg(Or(P, Q)), (hyp("h1", Neg(P)),)), (),
                     Rule.NOR_I_R, "premise must negate the matching disjunct",
                     id="norI-disjunct"),
        pytest.param(Derivation(Rule.OR_E, P, (hyp("h1", P), *_OR_E_PREMISES[1:]), ("h2", "h3")),
                     (), Rule.OR_E, "major premise must be a disjunction", id="orE-major"),
        pytest.param(Derivation(Rule.NOR_E, P, _OR_E_PREMISES, ("h2", "h3")), (), Rule.NOR_E,
                     "major premise must be a negated disjunction", id="norE-major"),
        pytest.param(Derivation(Rule.OR_E, P, _OR_E_PREMISES, ("h2", "h3", "h4")), (), Rule.OR_E,
                     "discharge must name exactly two labels", id="three-labels"),
        pytest.param(or_e(hyp("h3", Or(P, P)), hyp("h2", P), hyp("h3", P), ("h2", "h3")),
                     (), Rule.OR_E,
                     "discharged label 'h3' is still open outside its case branch",
                     id="right-label-open"),
        pytest.param(and_i(hyp("h0", Q), and_i(or_e(*_OR_E_PREMISES, ("h2", "h3")), hyp("h2", P))),
                     (1,), Rule.AND_I,
                     "label 'h2' is discharged in one branch but used in a sibling branch",
                     id="sibling-clash"),
        # the path is built as the failure unwinds, through the OrE's third premise
        pytest.param(or_e(hyp("h1", Or(P, P)), hyp("h2", P),
                          and_e_l(and_i(hyp("h3", P), and_e_r(and_i(
                              hyp("h4", P), Derivation(Rule.NN1, Q, (hyp("h5", P),
                                                                     hyp("h6", Neg(P)))))))),
                          ("h2", "h3")),
                     (2, 0, 1, 0, 1), Rule.NN1,
                     "second premise must be the double negation of the first",
                     id="deep-in-orE-right-case"),
    ],
)
def test_check_rejection_names_path_rule_and_message(bad, path, rule, message) -> None:
    with pytest.raises(DerivationError) as exc_info:
        check(bad)
    assert (exc_info.value.path, exc_info.value.rule, exc_info.value.message) == (
        path, rule, message)
    where = ".".join(str(i) for i in path) or "root"
    assert str(exc_info.value) == f"{rule.value if rule else '?'} at {where}: {message}"


_BUILDER_ERRORS = [
    ("and_e_l", (hyp("h1", P),), "AndE_L needs a conjunction premise"),
    ("and_e_r", (hyp("h1", Or(P, Q)),), "AndE_R needs a conjunction premise"),
    ("nand_i", (hyp("h1", Neg(P)), hyp("h2", Q)), "NAndI needs two negation premises"),
    ("nand_e_l", (hyp("h1", Neg(P)),), "NAndE_L needs a negated conjunction premise"),
    ("nand_e_r", (hyp("h1", And(P, Q)),), "NAndE_R needs a negated conjunction premise"),
    ("nor_i_l", (hyp("h1", P), Q), "NOrI_L needs a negation premise"),
    ("nor_i_r", (hyp("h1", P), Q), "NOrI_R needs a negation premise"),
    # a plain rule does not read through ~, and under ~ each premise must be a negation
    ("and_e_l", (hyp("h1", Neg(And(P, Q))),), "AndE_L needs a conjunction premise"),
    ("nand_i", (hyp("h1", P), hyp("h2", Neg(Q))), "NAndI needs two negation premises"),
]


# an id is the builder's name and the case's index among that builder's cases,
# so a case added later renames no existing id
@pytest.mark.parametrize(("builder", "args", "message"), _BUILDER_ERRORS,
                         ids=[f"{name}-{[c[0] for c in _BUILDER_ERRORS[:i]].count(name)}"
                              for i, (name, _, _) in enumerate(_BUILDER_ERRORS)])
def test_builders_refuse_premises_of_the_wrong_shape(builder, args, message) -> None:
    with pytest.raises(ValueError) as exc_info:
        getattr(nd, builder)(*args)
    assert str(exc_info.value) == message


def test_plain_builders_keep_the_negations_they_are_given() -> None:
    np, nq = hyp("h1", Neg(P)), hyp("h2", Neg(Q))
    assert or_i_l(np, Q).conclusion == Or(Neg(P), Q)
    assert nd.or_i_r(np, Q).conclusion == Or(Q, Neg(P))
    assert and_i(np, nq).conclusion == And(Neg(P), Neg(Q))
    assert and_e_r(hyp("h3", And(P, Neg(Q)))).conclusion == Neg(Q)


def test_one_label_bound_to_two_formulas_stays_open() -> None:
    # Reusing a label for a different formula is legal while the label is
    # open; both formulas count as assumptions.
    d = and_i(hyp("h1", P), hyp("h1", Q))
    assert check(d).open_assumptions == {P, Q}


def test_discharge_rejects_label_bound_to_two_formulas() -> None:
    # Once h2 stands for both p and q, no single case formula can
    # discharge it.
    left = and_e_l(and_i(hyp("h2", P), hyp("h2", Q)))
    d = or_e(hyp("h1", Or(P, P)), left, hyp("h3", P), ("h2", "h3"))
    with pytest.raises(DerivationError, match="h2"):
        check(d)


def test_same_label_in_disjoint_scopes_is_fine() -> None:
    # Both branches call their case hypothesis h2; the scopes never meet.
    d = or_e(hyp("h1", Or(P, P)), hyp("h2", P), hyp("h2", P), ("h2", "h2"))
    assert check(d).conclusion == P


# ---------------------------------------------------------------------------
# Discharge corruptions


def _de_morgan_nor() -> Derivation:
    return nor_e(
        hyp("h1", Neg(Or(P, Q))),
        or_i_l(hyp("h2", Neg(P)), Neg(Q)),
        Derivation(
            Rule.OR_I_R,
            Or(Neg(P), Neg(Q)),
            (hyp("h3", Neg(Q)),),
        ),
        ("h2", "h3"),
    )


def test_de_morgan_nor_elimination_checks() -> None:
    seq = check(_de_morgan_nor())
    assert seq.open_assumptions == {Neg(Or(P, Q))}
    assert seq.conclusion == Or(Neg(P), Neg(Q))


def test_corruption_swapped_discharge_labels() -> None:
    good = _de_morgan_nor()
    bad = Derivation(
        good.rule, good.conclusion, good.premises, ("h3", "h2"), None
    )
    with pytest.raises(DerivationError):
        check(bad)


def test_corruption_discharged_formula_mismatch() -> None:
    # Discharging a hypothesis whose formula is not the case formula.
    d = or_e(hyp("h1", Or(P, Q)), hyp("h2", P), hyp("h3", P), ("h2", "h3"))
    with pytest.raises(DerivationError, match="h3"):
        check(d)


def test_corruption_label_open_outside_its_branch() -> None:
    # The major premise itself uses the label being discharged.
    d = or_e(hyp("h2", Or(P, P)), hyp("h2", P), hyp("h3", P), ("h2", "h3"))
    with pytest.raises(DerivationError):
        check(d)


def test_corruption_double_discharge() -> None:
    inner = or_e(hyp("h1", Or(P, P)), hyp("h2", P), hyp("h3", P), ("h2", "h3"))
    outer = or_e(hyp("h0", Or(Or(P, P), Or(P, P))), inner, inner, ("h2", "h2"))
    with pytest.raises(DerivationError):
        check(outer)


def test_corruption_mutated_leaf() -> None:
    good = corpus()[1].derivation  # NN1 explosion: p, ~~p |- q
    assert soundness_check(good)
    bad = Derivation(
        good.rule,
        good.conclusion,
        (good.premises[0], hyp("h2", Neg(P))),
    )
    with pytest.raises(DerivationError):
        check(bad)
    assert not soundness_check(bad)


# ---------------------------------------------------------------------------
# Corpus


def test_corpus_names_are_unique_and_complete() -> None:
    entries = corpus()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert len(entries) >= 8
    for required in (
        "nn2",
        "nn1-explosion",
        "deMorgan-nand-to-conj",
        "deMorgan-conj-to-nand",
        "deMorgan-nor-to-disj",
        "deMorgan-disj-to-nor",
    ):
        assert required in names


def test_corpus_file_holds_the_builders_derivations() -> None:
    assert [tuple(e) for e in corpus()] == reference_corpus()


def test_corpus_checks_and_is_sound() -> None:
    for entry in corpus():
        seq = check(entry.derivation)
        assert isinstance(seq.open_assumptions, frozenset), entry.name
        assert soundness_check(entry.derivation), entry.name


@pytest.mark.parametrize(
    ("name", "sequent_text"),
    [
        ("nn2", "|- p | ~~p"),
        ("nn1-explosion", "p, ~~p |- q"),
        ("orE-roundtrip", "p | p |- p"),
        ("orI-orE-roundtrip", "p |- p"),
        ("deMorgan-and-L", "~(p & q) |- ~p"),
        ("deMorgan-nand-to-conj", "~(p & q) |- ~p & ~q"),
        ("deMorgan-conj-to-nand", "~p & ~q |- ~(p & q)"),
        ("deMorgan-nor-to-disj", "~(p | q) |- ~p | ~q"),
        ("deMorgan-disj-to-nor", "~p | ~q |- ~(p | q)"),
    ],
)
def test_corpus_establishes_expected_sequents(name, sequent_text) -> None:
    by_name = {e.name: e for e in corpus()}
    sequent = derivation_sequent(by_name[name].derivation)
    assert format_sequent(sequent) == sequent_text


def test_corpus_covers_every_rule() -> None:
    used: set[Rule] = set()
    for entry in corpus():
        used |= rules_used(entry.derivation)
    assert used == set(Rule)


# ---------------------------------------------------------------------------
# Soundness: what proof search's matrix pre-check rests on


@pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_derivations_check_and_are_sound(rule, data) -> None:
    d = data.draw(derivation_strategy(rule))
    assert d.rule is rule
    check(d)
    assert soundness_check(d), render_derivation(d)


# ---------------------------------------------------------------------------
# check() against the reference checker, on sound and corrupted trees


def _nodes(d: Derivation, path: tuple[int, ...] = ()):
    """(path, node) for every node of ``d``, preorder."""
    yield path, d
    for i, premise in enumerate(d.premises):
        yield from _nodes(premise, path + (i,))


def _replace_at(d: Derivation, path: tuple[int, ...], node: Derivation) -> Derivation:
    if not path:
        return node
    premises = list(d.premises)
    premises[path[0]] = _replace_at(premises[path[0]], path[1:], node)
    return d._replace(premises=tuple(premises))


#: Each kind of corruption, with the nodes it can change.
CORRUPTIONS = {
    "rule": lambda n: True,
    "sibling conclusion": lambda n: len(n.premises) >= 2,
    "label": lambda n: n.label,
    "swap discharge": lambda n: n.discharge,
    "drop premise": lambda n: n.premises,
    "duplicate premise": lambda n: n.premises,
}


def corrupt(rng: random.Random, d: Derivation, kind: str) -> Derivation:
    """``d`` with one node changed in the way ``kind`` names, or ``d``
    itself when no node admits that change."""
    nodes = list(_nodes(d))
    targets = [(path, n) for path, n in nodes if CORRUPTIONS[kind](n)]
    if not targets:
        return d
    path, node = rng.choice(targets)
    premises = list(node.premises)
    if kind == "rule":
        node = node._replace(rule=rng.choice(list(Rule)))
    elif kind == "sibling conclusion":
        i, k = rng.sample(range(len(premises)), 2)
        premises[i] = premises[i]._replace(conclusion=premises[k].conclusion)
    elif kind == "label":
        # mostly a label that a node outside the leaf's branch discharges,
        # which clashes in some sibling subtree; else any label of the tree,
        # which may close or reopen a hypothesis
        elsewhere = sorted({x for q, n in nodes if n.discharge and path[:len(q)] != q
                            for x in n.discharge})
        labels = sorted({n.label for _, n in nodes if n.label}
                        | {x for _, n in nodes if n.discharge for x in n.discharge})
        node = node._replace(label=rng.choice(
            elsewhere if elsewhere and rng.random() < 0.75 else labels + ["z"]))
    elif kind == "swap discharge":
        node = node._replace(discharge=node.discharge[::-1])
    elif kind == "drop premise":
        del premises[rng.randrange(len(premises))]
    else:
        i = rng.randrange(len(premises))
        premises.insert(i, premises[i])
    return _replace_at(d, path, node._replace(premises=tuple(premises)))


def _outcome(checker, d: Derivation):
    try:
        return checker(d)
    except DerivationError as exc:
        return exc.path, exc.rule, exc.message


@settings(max_examples=300, deadline=None)
@given(derivation_strategy(max_height=5), st.integers(0, 2**32 - 1))
def test_check_agrees_with_the_reference_checker(d, seed) -> None:
    rng = random.Random(seed)
    for tree in [d] + [corrupt(rng, d, kind) for kind in CORRUPTIONS for _ in range(3)]:
        expected = _outcome(reference_check, tree)
        assert _outcome(check, tree) == expected
        # the same tree loaded from JSON, with its formula nodes shared
        try:
            loaded = from_json_dict(to_json_dict(tree))
        except ProofFormatError:
            continue
        assert _outcome(check, loaded) == expected


#: The shape and conclusion messages of each schema, plain and under ~, with
#: the rules that read it; a message that names a formula is given up to it.
SCHEMA_MESSAGES = [
    ((Rule.AND_I,), "conclusion must conjoin the two premises in order"),
    ((Rule.NAND_I,), "premises must be negations"),
    ((Rule.NAND_I,), "conclusion must negate the conjunction of the premises' bodies"),
    ((Rule.AND_E_L, Rule.AND_E_R), "premise must be a conjunction"),
    ((Rule.AND_E_L, Rule.AND_E_R), "conclusion must be "),
    ((Rule.NAND_E_L, Rule.NAND_E_R), "premise must be a negated conjunction"),
    ((Rule.NAND_E_L, Rule.NAND_E_R), "conclusion must be ~"),
    ((Rule.OR_I_L, Rule.OR_I_R), "conclusion must be a disjunction"),
    ((Rule.OR_I_L, Rule.OR_I_R), "premise must be the matching disjunct"),
    ((Rule.NOR_I_L, Rule.NOR_I_R), "premise must be a negation"),
    ((Rule.NOR_I_L, Rule.NOR_I_R), "conclusion must be a negated disjunction"),
    ((Rule.NOR_I_L, Rule.NOR_I_R), "premise must negate the matching disjunct"),
    ((Rule.OR_E,), "major premise must be a disjunction"),
    ((Rule.OR_E,), "both case branches must conclude the node's conclusion"),
    ((Rule.NOR_E,), "major premise must be a negated disjunction"),
    ((Rule.NOR_E,), "both case branches must conclude the node's conclusion"),
]


def test_check_agrees_with_the_reference_checker_on_seeded_trees() -> None:
    # the corpus and 600 derivations that search finds (up to four premises
    # of depth 3, depths 1 to 7), each corrupted 3 times in every way
    rng = random.Random(30)
    found: list[Derivation] = []
    k = 0
    while len(found) < 600:
        derivation = search(random_sequent(rng, max_premises=4, max_depth=3), 1 + k % 7)
        k += 1
        if derivation is not None:
            found.append(derivation)
    errors = set()
    for d in [e.derivation for e in corpus()] + found:
        for tree in [d] + [corrupt(rng, d, kind) for kind in CORRUPTIONS for _ in range(3)]:
            outcome = _outcome(check, tree)
            assert outcome == _outcome(reference_check, tree), render_derivation(tree)
            if not isinstance(outcome, CheckedSequent):
                errors.add(outcome[1:])
    missed = [(rules, message) for rules, message in SCHEMA_MESSAGES
              if not any(rule in rules and text.startswith(message) for rule, text in errors)]
    assert missed == []


def test_check_gives_the_same_result_twice() -> None:
    trees = [e.derivation for e in corpus()] + [_de_morgan_nor()]
    trees += [from_json_dict(to_json_dict(d)) for d in trees]
    bad = or_e(hyp("h1", Or(P, Q)), hyp("h2", P), hyp("h2", P), ("h2", "h3"))
    for d in trees + [bad]:
        assert _outcome(check, d) == _outcome(check, d) == _outcome(reference_check, d)


def test_a_reused_hyp_object_checks_like_fresh_ones() -> None:
    # each visit of a shared node must get its own open map, or merging in
    # place would let one visit's result leak into another's
    a, h2 = hyp("a", P), hyp("h2", P)
    pq = And(P, Q)
    cases = [
        (and_i(and_i(a, a), nn1(a, hyp("b", Neg(Neg(P))), Q)),
         and_i(and_i(hyp("a", P), hyp("a", P)), nn1(hyp("a", P), hyp("b", Neg(Neg(P))), Q))),
        (or_e(hyp("h1", Or(P, P)), and_e_l(and_i(h2, h2)), hyp("h3", P), ("h2", "h3")),
         or_e(hyp("h1", Or(P, P)), and_e_l(and_i(hyp("h2", P), hyp("h2", P))),
              hyp("h3", P), ("h2", "h3"))),
        # h2 is discharged in the left case but still open in the right one
        (or_e(hyp("h1", Or(P, P)), h2, h2, ("h2", "h3")),
         or_e(hyp("h1", Or(P, P)), hyp("h2", P), hyp("h2", P), ("h2", "h3"))),
        # one label over two equal formula objects, one object and two builder-made
        (and_i(hyp("a", pq), hyp("a", pq)), and_i(hyp("a", And(P, Q)), hyp("a", And(P, Q)))),
        (or_e(hyp("h1", Or(P, P)), and_e_l(and_i(hyp("h2", pq), hyp("h2", pq))),
              hyp("h4", pq), ("h2", "h3")),
         or_e(hyp("h1", Or(P, P)), and_e_l(and_i(hyp("h2", And(P, Q)), hyp("h2", And(P, Q)))),
              hyp("h4", And(P, Q)), ("h2", "h3"))),
    ]
    for shared, fresh in cases:
        assert shared == fresh
        assert _outcome(check, shared) == _outcome(check, fresh) == _outcome(reference_check, fresh)
    assert check(cases[0][0]).open_assumptions == {P, Neg(Neg(P))}
    assert check(cases[1][0]).open_assumptions == {Or(P, P)}
    with pytest.raises(DerivationError, match="'h2' is still open outside its case branch"):
        check(cases[2][0])
    fresh_pq = cases[3][1].premises
    assert fresh_pq[0].conclusion is not fresh_pq[1].conclusion
    assert list(check(cases[3][1]).open_assumptions) == [And(P, Q)]
    assert _outcome(check, cases[4][1]) == (
        (), Rule.OR_E, "hypothesis 'h2' is p & q, but the case formula is p")


# ---------------------------------------------------------------------------
# Search


def test_search_finds_axiom_at_depth_one() -> None:
    d = search(parse_sequent("|- p | ~~p"), depth=1)
    assert d is not None
    assert d.rule is Rule.NN2
    assert soundness_check(d)


def test_search_explosion_at_depth_two() -> None:
    d = search(parse_sequent("p, ~~p |- q"), depth=2)
    assert d is not None
    assert d.rule is Rule.NN1


def test_search_depth_bound_is_respected() -> None:
    assert search(parse_sequent("p, ~~p |- q"), depth=1) is None
    assert search(parse_sequent("~p, ~q |- ~(p & q)"), depth=1) is None


def test_search_refuses_depths_below_one() -> None:
    sequent = parse_sequent("p |- p")
    assert search(sequent, 1) == hyp("p1", P)
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"search depth {depth} is below 1"):
            search(sequent, depth)


def test_search_completes_at_the_search_depth_bound(monkeypatch) -> None:
    # ~ is a four-cycle, so the first premise equals the conclusion and the
    # matrix pre-check lets the search run.  Every level splits a | b once
    # more, and at every level the goal is compared with that premise,
    # which matches it for 196 nested negations.
    sequent = parse_sequent(f"{'~' * (MAX_DEPTH - 4)}c, a | b |- {'~' * MAX_DEPTH}c")
    assert is_consequence(sequent).valid
    # assumptions held at each goal lookup; wrapping _find, unlike _prove,
    # adds one frame in all rather than one per level
    held = []
    find = prove._find

    def counting(assumptions, f):
        held.append(len(assumptions))
        return find(assumptions, f)

    monkeypatch.setattr(prove, "_find", counting)
    assert search(sequent, MAX_SEARCH_DEPTH) is None
    assert max(held) == 2 + MAX_SEARCH_DEPTH - 1  # one case hypothesis per level
    with pytest.raises(ValueError, match=f"search depth {MAX_SEARCH_DEPTH + 1} exceeds"):
        search(sequent, MAX_SEARCH_DEPTH + 1)


CURATED = (
    ("|- p | ~~p", Rule.NN2),
    ("p, ~~p |- q", Rule.NN1),
    ("~p, ~q |- ~(p & q)", Rule.NAND_I),
    ("~(p & q) |- ~p", Rule.NAND_E_L),
    ("~p |- ~(p | q)", Rule.NOR_I_L),
    ("~(p | q) |- ~p | ~q", Rule.NOR_E),
)


@pytest.mark.parametrize(("text", "root"), CURATED)
def test_search_solves_curated_sequents_within_depth_four(text, root) -> None:
    sequent = parse_sequent(text)
    d = search(sequent, depth=4)
    assert d is not None
    assert d.rule is root
    seq = check(d)
    assert seq.conclusion == sequent.conclusion
    assert seq.open_assumptions <= set(sequent.premises)
    assert soundness_check(d)


def test_search_none_when_no_derivation_exists() -> None:
    assert search(parse_sequent("p |- q"), depth=5) is None
    assert search(parse_sequent("|- p"), depth=5) is None
    assert search(parse_sequent("~~p |- p"), depth=5) is None


def test_search_is_deterministic() -> None:
    sequent = parse_sequent("~(p | q) |- ~p | ~q")
    first = search(sequent, depth=4)
    second = search(sequent, depth=4)
    assert first == second


def test_search_results_are_sound_on_random_sequents() -> None:
    rng = random.Random(93)
    found = 0
    for _ in range(250):
        sequent = random_sequent(rng, max_premises=2, max_depth=2)
        d = search(sequent, depth=3)
        if d is None:
            continue
        found += 1
        seq = check(d)
        assert seq.conclusion == sequent.conclusion
        assert seq.open_assumptions <= set(sequent.premises)
        assert soundness_check(d)
    assert found >= 25  # the sample is not degenerate (32 with this seed)


def _plain_search(s, depth):
    """``search`` with its matrix pre-check reported over the cap, so the
    search body runs on every sequent."""
    def over_cap(sequent, cap=DEFAULT_CAP):
        raise CapExceededError(len(sequent_variables(sequent)), cap)

    with mock.patch.object(nd, "is_consequence", over_cap):
        return search(s, depth)


def _agrees_with_plain_search(sequent, depth) -> tuple[bool, bool]:
    """Assert that ``search`` gives what its body gives without the
    pre-check; return whether a derivation was found and whether the
    pre-check refutes the sequent."""
    found = search(sequent, depth)
    plain = _plain_search(sequent, depth)
    assert found == plain
    if found is not None:
        assert to_json_dict(found) == to_json_dict(plain)
    refuted = not is_consequence(sequent).valid
    if refuted:
        assert plain is None
    return found is not None, refuted


@settings(max_examples=300, deadline=None)
@given(splittable_sequent_strategy(), st.integers(1, 4))
def test_precheck_leaves_search_results_unchanged(sequent, depth) -> None:
    _agrees_with_plain_search(sequent, depth)


def test_precheck_leaves_random_search_results_unchanged() -> None:
    rng = random.Random(94)
    found = refuted = 0
    for k in range(300):
        sequent = random_sequent(rng, max_premises=3, max_depth=2)
        was_found, was_refuted = _agrees_with_plain_search(sequent, 1 + k % 4)
        found += was_found
        refuted += was_refuted
    # both sides of the check are sampled (56 found, 208 refuted with this seed)
    assert found >= 25 and refuted >= 25


@pytest.fixture
def prove_calls(monkeypatch) -> list:
    """Every call search makes to ``prove._prove``, recursive ones included."""
    calls = []
    inner = prove._prove

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(prove, "_prove", counting)
    return calls


@pytest.fixture
def consequence_calls(monkeypatch) -> list:
    """Every call search makes to ``nd.is_consequence``."""
    calls = []
    consequence = nd.is_consequence

    def counting(*args):
        calls.append(args)
        return consequence(*args)

    monkeypatch.setattr(nd, "is_consequence", counting)
    return calls


def test_precheck_refutes_at_the_first_case_split(prove_calls, consequence_calls) -> None:
    # the root call is the first to try case analysis, and the check stops it
    invalid = parse_sequent("a | b, c | d, e | f, ~(g | h) |- z")
    assert search(invalid, 12) is None
    assert len(prove_calls) == 1
    assert consequence_calls == [(invalid,)]
    # a search that never splits never checks
    prove_calls.clear()
    consequence_calls.clear()
    assert search(parse_sequent("p & q |- q"), 2) is not None
    assert prove_calls
    assert consequence_calls == []


def test_precheck_runs_at_a_deep_first_split(monkeypatch) -> None:
    # the conjunction is a left chain, so search takes its left conjunct
    # 198 times down to c & c at depth 2, whose left c fails at depth 1;
    # there it first splits a | b, with 199 _prove frames on the stack
    invalid = parse_sequent("a | b |- " + " & ".join(["c"] * 200))
    frames = []
    consequence = nd.is_consequence

    def counting(*args):
        frame, depth = sys._getframe(1), 0
        while frame is not None:
            depth += frame.f_code is prove._prove.__code__
            frame = frame.f_back
        frames.append(depth)
        return consequence(*args)

    monkeypatch.setattr(nd, "is_consequence", counting)
    assert search(invalid, MAX_SEARCH_DEPTH) is None
    assert frames == [MAX_SEARCH_DEPTH - 1]


@settings(max_examples=300, deadline=None)
@given(splittable_sequent_strategy(), st.integers(1, 5))
def test_search_agrees_with_the_eager_reference(sequent, depth) -> None:
    # the strategy draws sequents with and without splittable premises,
    # valid and invalid ones
    assert search(sequent, depth) == reference_search(sequent, depth)


def test_search_agrees_with_the_eager_reference_on_seeded_sequents() -> None:
    # deeper searches than the strategy above reaches: up to four premises
    # of depth 3, searched at depths 1 to 7
    rng = random.Random(29)
    found = split = 0
    for k in range(3000):
        sequent = random_sequent(rng, max_premises=4, max_depth=3)
        depth = 1 + k % 7
        derivation = search(sequent, depth)
        expected = reference_search(sequent, depth)
        assert derivation == expected, (str(sequent), depth)
        if expected is not None:
            assert to_json_dict(derivation) == to_json_dict(expected)
            found += 1
            split += bool(rules_used(expected) & DISCHARGING_RULES)
    # both outcomes are sampled (681 found, 56 of them with a case split,
    # with this seed)
    assert found >= 300 and split >= 25


def test_search_above_the_cap_runs_unchecked(prove_calls) -> None:
    sequent = parse_sequent("a, b, c, d, e, f, g, h, i, j |- k")
    with pytest.raises(CapExceededError):
        is_consequence(sequent)
    assert search(sequent, 4) is None
    assert prove_calls


# ---------------------------------------------------------------------------
# JSON round trip


def test_json_roundtrip_preserves_corpus() -> None:
    for entry in corpus():
        blob = json.dumps(to_json_dict(entry.derivation))
        assert from_json_dict(json.loads(blob)) == entry.derivation


@settings(max_examples=150, deadline=None)
@given(derivation_strategy())
def test_json_roundtrip_preserves_random_derivations(d) -> None:
    assert from_json_dict(json.loads(json.dumps(to_json_dict(d)))) == d


PROOF_KEYS = ["rule", "conclusion", "premises", "discharge", "label"]


def json_trees() -> st.SearchStrategy:
    """JSON values biased towards proof nodes: objects with the format's
    keys, wire rule names, formula texts (some malformed) and labels."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
        st.sampled_from([r.value for r in Rule]),
        st.sampled_from(["p", "p & q", "~~p | q", "p |", "(p", "h1", "a"]))
    keys = st.one_of(st.sampled_from(PROOF_KEYS), st.text(max_size=3))
    return st.recursive(scalars, lambda sub: st.one_of(
        st.lists(sub, max_size=3), st.dictionaries(keys, sub, max_size=5)), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_from_json_dict_raises_only_format_or_parse_errors(data) -> None:
    """Random JSON trees, and valid proof files with one field of one node
    replaced by random JSON, are loaded or refused with a format or parse
    error, never another exception."""
    if data.draw(st.booleans()):
        obj = data.draw(json_trees())
    else:
        obj = to_json_dict(data.draw(derivation_strategy(max_height=3)))
        node = obj
        while node["premises"] and data.draw(st.booleans()):
            node = data.draw(st.sampled_from(node["premises"]))
        node[data.draw(st.sampled_from(PROOF_KEYS))] = data.draw(json_trees())
    try:
        from_json_dict(obj)
    except (ProofFormatError, ParseError):
        pass


def test_json_emits_wire_rule_names() -> None:
    obj = to_json_dict(corpus()[0].derivation)
    assert obj["rule"] == "NN2"
    assert obj["conclusion"] == "p | ~~p"
    assert obj["premises"] == []


def test_json_discharge_shape() -> None:
    entry = next(e for e in corpus() if e.name == "orE-roundtrip")
    obj = to_json_dict(entry.derivation)
    assert obj["discharge"] == ["h2", "h3"]
    assert obj["premises"][1]["label"] == "h2"


@pytest.mark.parametrize(
    "obj",
    [
        "not an object",
        {"conclusion": "p"},
        {"rule": "Frobnicate", "conclusion": "p", "premises": []},
        {"rule": "Hyp", "conclusion": "p", "premises": []},  # missing label
        {"rule": "Hyp", "conclusion": "p", "premises": [], "label": ""},
        {"rule": "NN2", "conclusion": "p | ~~p", "premises": [],
         "label": "h1"},
        {"rule": "AndI", "conclusion": "p & q", "premises": [
            {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h1"},
            {"rule": "Hyp", "conclusion": "q", "premises": [], "label": "h2"},
        ], "discharge": ["h1", "h2"]},
        {"rule": "OrE", "conclusion": "p", "discharge": ["h2"], "premises": [
            {"rule": "Hyp", "conclusion": "p | p", "premises": [],
             "label": "h1"},
            {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h2"},
            {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h3"},
        ]},
    ],
)
def test_from_json_dict_rejects_malformed_input(obj) -> None:
    with pytest.raises(ProofFormatError):
        from_json_dict(obj)


@pytest.mark.parametrize("rule, message", [
    (["AndI"], "unknown rule ['AndI']"),
    ({}, "unknown rule {}"),
    (3, "unknown rule 3"),
    (None, "unknown rule None"),
    ("andI", "unknown rule 'andI'"),
])
def test_from_json_dict_names_an_unknown_rule(rule, message: str) -> None:
    with pytest.raises(ProofFormatError) as info:
        from_json_dict({"rule": rule, "conclusion": "p", "premises": []})
    assert str(info.value) == message


@pytest.mark.parametrize("obj", [
    {"rule": "NN2", "conclusion": "p | ~~p", "premises": {}},
    {"rule": "AndE_L", "conclusion": "p", "premises": [
        {"rule": "Hyp", "conclusion": "p & q", "label": "h1",
         "premises": {"0": {"rule": "Hyp", "conclusion": "p", "label": "h2"}}},
    ]},
], ids=["root", "below the root"])
def test_from_json_dict_requires_premises_to_be_an_array(obj) -> None:
    with pytest.raises(ProofFormatError, match="^'premises' must be an array$"):
        from_json_dict(obj)


def test_from_json_dict_requires_a_rule() -> None:
    with pytest.raises(ProofFormatError, match="^proof node is missing 'rule'$"):
        from_json_dict({"conclusion": "p", "premises": []})


def test_from_json_dict_requires_a_conclusion() -> None:
    with pytest.raises(ProofFormatError, match="^proof node is missing 'conclusion'$"):
        from_json_dict({"rule": "NN2", "premises": []})


@pytest.mark.parametrize("conclusion", [5, ["p"], None])
def test_from_json_dict_requires_string_conclusions(conclusion) -> None:
    with pytest.raises(ProofFormatError, match="'conclusion' must be a string"):
        from_json_dict({"rule": "NN2", "conclusion": conclusion, "premises": []})


def test_from_json_dict_bounds_proof_depth() -> None:
    chain = json.loads(and_elim_chain(MAX_PROOF_DEPTH))
    assert check(from_json_dict(chain)).conclusion == parse("p")
    with pytest.raises(ProofFormatError, match=f"deeper than {MAX_PROOF_DEPTH} levels"):
        from_json_dict({"rule": "AndE_L", "conclusion": "p", "premises": [chain]})


def test_from_json_dict_propagates_formula_parse_errors() -> None:
    with pytest.raises(ParseError):
        from_json_dict({"rule": "NN2", "conclusion": "p | ~~", "premises": []})
    # nodes are read depth first, each conclusion before its premises, so
    # the first of the two "p |" nodes fails before the shallower "(q"
    tree = {"rule": "AndI", "conclusion": "p & q", "premises": [
        {"rule": "AndE_L", "conclusion": "p", "premises": [
            {"rule": "Hyp", "label": "a", "conclusion": "p |"}]},
        {"rule": "Hyp", "label": "b", "conclusion": "(q"},
        {"rule": "Hyp", "label": "c", "conclusion": "p |"}]}
    with pytest.raises(ParseError) as exc_info:
        from_json_dict(tree)
    assert (exc_info.value.position, exc_info.value.message) == (4, "expected a formula")


def _conclusions(obj: dict, d: Derivation):
    """(text, formula) for every node of a JSON tree and its derivation."""
    yield obj["conclusion"], d.conclusion
    for sub_obj, sub_d in zip(obj["premises"], d.premises):
        yield from _conclusions(sub_obj, sub_d)


def test_from_json_dict_parses_equal_texts_once_per_tree() -> None:
    repeats = 0
    for entry in corpus():
        obj = to_json_dict(entry.derivation)
        first, second = from_json_dict(obj), from_json_dict(obj)
        by_text: dict = {}
        for text, f in _conclusions(obj, first):
            repeats += text in by_text
            assert by_text.setdefault(text, f) is f
        # two loads share no formula object, so no cache outlives a call
        seen = {id(g) for _, f in _conclusions(obj, first) for g in subformulas(f)}
        assert not any(id(g) in seen for _, f in _conclusions(obj, second)
                       for g in subformulas(f))
    assert repeats


SHARING_TREE = {"rule": "AndI", "conclusion": "~(p & q) & ((p & q) | r)", "premises": [
    {"rule": "Hyp", "label": "a", "conclusion": "~(p & q)"},
    {"rule": "Hyp", "label": "b", "conclusion": "(p & q) | r"}]}


def test_from_json_dict_shares_equal_subformulas_within_a_tree_only() -> None:
    d = from_json_dict(SHARING_TREE)
    negation, disjunction = (p.conclusion for p in d.premises)
    assert negation.body is disjunction.left
    assert d.conclusion.left is negation and d.conclusion.right is disjunction
    assert check(d) == CheckedSequent(frozenset({parse("~(p & q)"), parse("(p & q) | r")}),
                                      parse("~(p & q) & ((p & q) | r)"))
    # there is no module-level table, so a second call shares no node
    again = from_json_dict(SHARING_TREE)
    assert again == d
    assert not ({id(f) for f in subformulas(d.conclusion)}
                & {id(f) for f in subformulas(again.conclusion)})


def test_parse_shares_only_through_a_given_table() -> None:
    f = parse("(p & q) | ~(p & q)")
    assert f.left is f.right.body
    assert parse("p & q").left is not parse("p & q").left
    nodes: dict = {}
    g, h = parse("p & q", nodes), parse("r | ~(p & q)", nodes)
    assert h.right.body is g and parse("p", nodes) is g.left


def test_render_derivation_shows_structure() -> None:
    entry = next(e for e in corpus() if e.name == "orE-roundtrip")
    text = render_derivation(entry.derivation)
    assert "OrE" in text
    assert "[discharges h2, h3]" in text
    assert "Hyp [h2]" in text


def test_discharging_rules_constant() -> None:
    assert DISCHARGING_RULES == {Rule.OR_E, Rule.NOR_E}


def test_nd_functions_read_rules_through_module_names() -> None:
    # On Python 3.11 every Rule.X read runs the enum metaclass's __getattr__,
    # about 16 times the cost of a global, so nd binds the members once
    # (search, in prove, builds nodes through nd's builders).
    trees = []
    for module in (nd, prove):
        with open(module.__file__, encoding="utf-8") as handle:
            trees.append(ast.parse(handle.read()))
    reads = [
        (func.name, node.lineno)
        for tree in trees
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "Rule" and node.attr in Rule.__members__
    ]
    assert reads == []
    assert [getattr(nd, rule.name) for rule in Rule] == list(Rule)


def test_corpus_entry_is_a_plain_record() -> None:
    entry = corpus()[0]
    assert isinstance(entry, CorpusEntry)
    assert entry.name and entry.derivation.rule in set(Rule)
