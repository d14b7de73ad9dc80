"""Shared formula, sequent and derivation generators and reference scans
for the test suite.

Two flavours of generator: a seeded ``random.Random`` generator for tests
that need a fixed, reproducible sample of a given size, and hypothesis
strategies for property tests that benefit from shrinking.  The reference
evaluators recurse over a formula with the matrix tables or the option's
truth-set clauses, independently of the block engine behind the library's
evaluators; the reference scans enumerate interpretations one at a time
with them, and the engine must agree with them exactly.  The reference
parser is the recursive-descent parser the library's one-pass parser
must agree with, results and errors alike.  The reference checker is the
proof checker that copied every open-assumption map and compared rebuilt
formulas; ``nd.check`` must agree with it, results and errors alike.
The reference compile is the ``isinstance`` walk that ``engine.Program``
replaced with a dispatch on the node's type; their DAGs must be equal.
The reference printer, substitution and subformula walk are the
``isinstance`` recursions that ``formula`` replaced with a dispatch on the
node's class and position (and an explicit stack for the walk); they must
agree with it exactly, down to the identity of the atoms a substitution
keeps.
The reference release lists are ``engine.Program``'s set computation, which
its one-pass last-reader walk replaced; the two must give the same lists.
The reference search checks the sequent against the matrix before it
searches, and then runs the reference search body, which spelled out one
introduction block per rule (``&``, ``|``, ``~&``, ``~|``) before
``prove._prove`` read a goal as two shapes; ``prove.search``, which checks
at its first case split, must find the same derivation, labels included.
The reference corpus is built by the rule builders, as ``nd.corpus`` was
before it read its entries from a data file.  The reference truth-table output renders the whole
table at once, as ``cnl4 truthtable`` did before it streamed its rows; the
CLI's stdout must equal it byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import count, product
from operator import itemgetter

from hypothesis import strategies as st

from cnl4 import prove
from cnl4.fc import BinaryTable, UnaryTable
from cnl4.formula import (
    MAX_DEPTH,
    And,
    Atom,
    Formula,
    Neg,
    Or,
    ParseError,
    Sequent,
    format_formula,
    sequent_variables,
    subformulas,
    variables,
)
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
    interpretations,
    is_consequence,
    truth_table,
)
from cnl4.nd import (
    DISCHARGING_RULES,
    CheckedSequent,
    Derivation,
    DerivationError,
    Rule,
    _is_double_negation,
    and_e_l,
    and_e_r,
    and_i,
    hyp,
    nand_e_l,
    nand_e_r,
    nand_i,
    nn1,
    nn2,
    nor_e,
    nor_i_l,
    nor_i_r,
    or_e,
    or_i_l,
    or_i_r,
)
from cnl4.prove import _find
from cnl4.relational import (
    FalsityStyle,
    Mismatch,
    NegFalsityClause,
    NegTruthClause,
    OptionReading,
    Preservation,
    TruthSet,
    correspond,
    get_option,
)

DEFAULT_ATOMS = ("p", "q", "r")


def random_formula(
    rng: random.Random,
    max_depth: int,
    atoms: tuple[str, ...] = DEFAULT_ATOMS,
) -> Formula:
    """Return a random formula of connective depth at most ``max_depth``."""
    if max_depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(random_formula(rng, max_depth - 1, atoms))
    left = random_formula(rng, max_depth - 1, atoms)
    right = random_formula(rng, max_depth - 1, atoms)
    return And(left, right) if kind == 1 else Or(left, right)


def random_sequent(
    rng: random.Random,
    max_premises: int = 2,
    max_depth: int = 3,
    atoms: tuple[str, ...] = ("p", "q"),
) -> Sequent:
    premises = tuple(
        random_formula(rng, max_depth, atoms)
        for _ in range(rng.randint(0, max_premises))
    )
    return Sequent(premises, random_formula(rng, max_depth, atoms))


def formula_strategy(
    atoms: tuple[str, ...] = DEFAULT_ATOMS,
    max_leaves: int = 16,
) -> st.SearchStrategy[Formula]:
    base = st.sampled_from([Atom(name) for name in atoms])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda pair: And(pair[0], pair[1])),
            st.tuples(sub, sub).map(lambda pair: Or(pair[0], pair[1])),
        ),
        max_leaves=max_leaves,
    )


def splittable_sequent_strategy(
    atoms: tuple[str, ...] = DEFAULT_ATOMS,
    max_premises: int = 3,
    max_leaves: int = 4,
) -> st.SearchStrategy[Sequent]:
    """Sequents whose premises are often a disjunction or a negated
    disjunction, so that backward search has case splits to try.  Half
    the conclusions are built from the premises' subformulas or from a
    split premise's cases, so that a fair share of the sequents is valid
    and some need a case split to prove."""
    sub = formula_strategy(atoms, max_leaves)
    split = st.tuples(sub, sub).map(lambda pair: Or(pair[0], pair[1]))
    premise = st.one_of(sub, split, split.map(Neg))

    @st.composite
    def build(draw):
        premises = tuple(draw(st.lists(premise, max_size=max_premises)))
        parts = [g for p in premises for g in subformulas(p)]
        parts += [Or(p.right, p.left) for p in premises if isinstance(p, Or)]
        parts += [Or(Neg(p.body.right), Neg(p.body.left)) for p in premises
                  if isinstance(p, Neg) and isinstance(p.body, Or)]
        if not parts or draw(st.booleans()):
            return Sequent(premises, draw(sub))
        part = st.sampled_from(parts)
        conclusion = draw(st.one_of(
            part,
            st.tuples(part, sub).map(lambda pair: Or(pair[0], pair[1])),
            st.tuples(part, part).map(lambda pair: And(pair[0], pair[1])),
        ))
        return Sequent(premises, conclusion)

    return build()


#: Labels of open hypotheses; discharged labels are ``h1``, ``h2``, ...
OPEN_LABELS = ("a", "b")


def derivation_strategy(
    root: Rule | None = None,
    atoms: tuple[str, ...] = ("p", "q"),
    max_height: int = 4,
) -> st.SearchStrategy[Derivation]:
    """Random derivations built bottom-up from the ``nd`` builders, with
    ``root`` at the root when it is given.

    Every one of the fifteen rules can be drawn at every inner node.  A
    premise that a rule needs in a given shape (a conjunction, a negated
    disjunction, ...) is a random derivation when its conclusion happens
    to have that shape, and otherwise a hypothesis of that shape.  OrE and
    NOrE draw fresh discharge labels, and their case branches may assume
    the case formulas; branches with different conclusions are joined by
    OrI_L/OrI_R into the same disjunction.  Every label a node discharges
    is used only in the branch it names, so every derivation checks.
    """
    sub = formula_strategy(atoms, max_leaves=3)
    pairs = st.tuples(sub, sub)
    shapes = {
        "and": (lambda f: isinstance(f, And), pairs.map(lambda fg: And(*fg))),
        "or": (lambda f: isinstance(f, Or), pairs.map(lambda fg: Or(*fg))),
        "neg": (lambda f: isinstance(f, Neg), sub.map(Neg)),
        "nand": (lambda f: isinstance(f, Neg) and isinstance(f.body, And),
                 pairs.map(lambda fg: Neg(And(*fg)))),
        "nor": (lambda f: isinstance(f, Neg) and isinstance(f.body, Or),
                pairs.map(lambda fg: Neg(Or(*fg)))),
    }

    @st.composite
    def build(draw):
        fresh = count(1)

        def leaf(cases):
            if cases and draw(st.booleans()):
                label, f = draw(st.sampled_from(cases))
                return hyp(label, f)
            return hyp(draw(st.sampled_from(OPEN_LABELS)), draw(sub))

        def shaped(kind, height, cases):
            fits, formulas = shapes[kind]
            d = derive(height, cases)
            if fits(d.conclusion):
                return d
            return hyp(draw(st.sampled_from(OPEN_LABELS)), draw(formulas))

        def split(build_node, major, cases_lr, height, cases):
            label_l, label_r = f"h{next(fresh)}", f"h{next(fresh)}"
            left = derive(height, cases + ((label_l, cases_lr[0]),))
            right = derive(height, cases + ((label_r, cases_lr[1]),))
            if left.conclusion != right.conclusion:
                left, right = (or_i_l(left, right.conclusion),
                               or_i_r(right, left.conclusion))
            return build_node(major, left, right, (label_l, label_r))

        def derive(height, cases, rule=None):
            if rule is None:
                rule = draw(st.sampled_from([Rule.HYP, Rule.NN2] if height == 0 else list(Rule)))
            h = height - 1
            if rule is Rule.HYP:
                return leaf(cases)
            if rule is Rule.NN2:
                return nn2(draw(sub))
            if rule is Rule.AND_I:
                return and_i(derive(h, cases), derive(h, cases))
            if rule is Rule.AND_E_L:
                return and_e_l(shaped("and", h, cases))
            if rule is Rule.AND_E_R:
                return and_e_r(shaped("and", h, cases))
            if rule is Rule.OR_I_L:
                return or_i_l(derive(h, cases), draw(sub))
            if rule is Rule.OR_I_R:
                return or_i_r(derive(h, cases), draw(sub))
            if rule is Rule.OR_E:
                major = shaped("or", h, cases)
                c = major.conclusion
                return split(or_e, major, (c.left, c.right), h, cases)
            if rule is Rule.NN1:
                first = derive(h, cases)
                double = Neg(Neg(first.conclusion))
                return nn1(first, hyp(draw(st.sampled_from(OPEN_LABELS)), double), draw(sub))
            if rule is Rule.NAND_I:
                return nand_i(shaped("neg", h, cases), shaped("neg", h, cases))
            if rule is Rule.NAND_E_L:
                return nand_e_l(shaped("nand", h, cases))
            if rule is Rule.NAND_E_R:
                return nand_e_r(shaped("nand", h, cases))
            if rule is Rule.NOR_I_L:
                return nor_i_l(shaped("neg", h, cases), draw(sub))
            if rule is Rule.NOR_I_R:
                return nor_i_r(shaped("neg", h, cases), draw(sub))
            major = shaped("nor", h, cases)  # Rule.NOR_E
            c = major.conclusion.body
            return split(nor_e, major, (Neg(c.left), Neg(c.right)), h, cases)

        return derive(draw(st.integers(1, max_height)), (), root)

    return build()


def rules_used(d: Derivation) -> set[Rule]:
    """The rules of every node of ``d``."""
    used = {d.rule}
    for premise in d.premises:
        used |= rules_used(premise)
    return used


# The reference checker: the proof checker as it was before it merged open
# assumptions in place and compared formulas field by field.  It copies
# every open map into a fresh one at each node, scans every pair of
# siblings for clashes, and compares whole rebuilt formulas.  It keeps the
# per-rule form, one branch for each rule or pair of mirrored rules, where
# ``check`` reads the twelve &/| rules as four schemas, each plain or under
# ~.  ``check`` must give the same result, or the same error, on every
# derivation.

# open hypotheses: label -> set of formulas it labels (normally a singleton)
_Open = dict[str, set[Formula]]


def reference_check(d: Derivation) -> CheckedSequent:
    """Open assumptions and conclusion of ``d``, by the reference checker."""
    open_map, _ = _check(d, ())
    formulas = frozenset(f for fs in open_map.values() for f in fs)
    return CheckedSequent(formulas, d.conclusion)


def _fail(path: tuple[int, ...], rule: Rule | None, message: str) -> None:
    raise DerivationError(path, rule, message)


def _expect_arity(d: Derivation, path: tuple[int, ...], n: int) -> None:
    if len(d.premises) != n:
        _fail(path, d.rule, f"expected {n} premises, found {len(d.premises)}")


def _merge(path: tuple[int, ...], rule: Rule,
           results: list[tuple[_Open, set[str]]]) -> tuple[_Open, set[str]]:
    # A label discharged inside one subtree may not be open or discharged
    # in a sibling subtree.
    for i, (_, discharged_i) in enumerate(results):
        for k, (open_k, discharged_k) in enumerate(results):
            if i == k:
                continue
            clash = discharged_i & (set(open_k) | discharged_k)
            if clash:
                label = sorted(clash)[0]
                _fail(path, rule,
                      f"label {label!r} is discharged in one branch but "
                      f"used in a sibling branch")
    merged: _Open = {}
    discharged: set[str] = set()
    for open_i, discharged_i in results:
        for label, formulas in open_i.items():
            merged.setdefault(label, set()).update(formulas)
        discharged |= discharged_i
    return merged, discharged


def _discharge(path: tuple[int, ...], rule: Rule, open_map: _Open,
               label: str, case: Formula) -> None:
    # report the mismatch that renders first, as _merge reports labels
    wrong = sorted(format_formula(f) for f in open_map.pop(label, ()) if f != case)
    if wrong:
        _fail(path, rule, f"hypothesis {label!r} is {wrong[0]}, "
                          f"but the case formula is {format_formula(case)}")


def _check(d: Derivation, path: tuple[int, ...]) -> tuple[_Open, set[str]]:
    rule = d.rule
    if not isinstance(rule, Rule):
        _fail(path, None, f"unknown rule {rule!r}")
    if (d.label is not None) != (rule is Rule.HYP):
        _fail(path, rule, "only Hyp nodes carry a hypothesis label")
    if (d.discharge is not None) != (rule in DISCHARGING_RULES):
        _fail(path, rule, "only OrE/NOrE nodes carry discharge labels")

    if rule is Rule.HYP:
        _expect_arity(d, path, 0)
        if not d.label:
            _fail(path, rule, "hypothesis label must be a non-empty string")
        return {d.label: {d.conclusion}}, set()

    if rule is Rule.NN2:
        _expect_arity(d, path, 0)
        c = d.conclusion
        if not (isinstance(c, Or) and c.right == Neg(Neg(c.left))):
            _fail(path, rule, "conclusion must have the form A | ~~A")
        return {}, set()

    results = [_check(p, path + (i,)) for i, p in enumerate(d.premises)]
    concs = [p.conclusion for p in d.premises]

    if rule is Rule.AND_I:
        _expect_arity(d, path, 2)
        if d.conclusion != And(concs[0], concs[1]):
            _fail(path, rule, "conclusion must conjoin the two premises in order")
    elif rule in (Rule.AND_E_L, Rule.AND_E_R):
        _expect_arity(d, path, 1)
        if not isinstance(concs[0], And):
            _fail(path, rule, "premise must be a conjunction")
        wanted = concs[0].left if rule is Rule.AND_E_L else concs[0].right
        if d.conclusion != wanted:
            _fail(path, rule, f"conclusion must be {format_formula(wanted)}")
    elif rule in (Rule.OR_I_L, Rule.OR_I_R):
        _expect_arity(d, path, 1)
        if not isinstance(d.conclusion, Or):
            _fail(path, rule, "conclusion must be a disjunction")
        own = d.conclusion.left if rule is Rule.OR_I_L else d.conclusion.right
        if own != concs[0]:
            _fail(path, rule, "premise must be the matching disjunct")
    elif rule is Rule.NN1:
        _expect_arity(d, path, 2)
        if concs[1] != Neg(Neg(concs[0])):
            _fail(path, rule, "second premise must be the double negation "
                              "of the first")
        # conclusion arbitrary
    elif rule is Rule.NAND_I:
        _expect_arity(d, path, 2)
        if not (isinstance(concs[0], Neg) and isinstance(concs[1], Neg)):
            _fail(path, rule, "premises must be negations")
        if d.conclusion != Neg(And(concs[0].body, concs[1].body)):
            _fail(path, rule, "conclusion must negate the conjunction of "
                              "the premises' bodies")
    elif rule in (Rule.NAND_E_L, Rule.NAND_E_R):
        _expect_arity(d, path, 1)
        if not (isinstance(concs[0], Neg) and isinstance(concs[0].body, And)):
            _fail(path, rule, "premise must be a negated conjunction")
        conjunct = (concs[0].body.left if rule is Rule.NAND_E_L
                    else concs[0].body.right)
        if d.conclusion != Neg(conjunct):
            _fail(path, rule, f"conclusion must be {format_formula(Neg(conjunct))}")
    elif rule in (Rule.NOR_I_L, Rule.NOR_I_R):
        _expect_arity(d, path, 1)
        if not isinstance(concs[0], Neg):
            _fail(path, rule, "premise must be a negation")
        c = d.conclusion
        if not (isinstance(c, Neg) and isinstance(c.body, Or)):
            _fail(path, rule, "conclusion must be a negated disjunction")
        own = c.body.left if rule is Rule.NOR_I_L else c.body.right
        if own != concs[0].body:
            _fail(path, rule, "premise must negate the matching disjunct")
    elif rule in DISCHARGING_RULES:
        _expect_arity(d, path, 3)
        if rule is Rule.OR_E:
            if not isinstance(concs[0], Or):
                _fail(path, rule, "major premise must be a disjunction")
            case_l: Formula = concs[0].left
            case_r: Formula = concs[0].right
        else:
            if not (isinstance(concs[0], Neg) and isinstance(concs[0].body, Or)):
                _fail(path, rule, "major premise must be a negated disjunction")
            case_l = Neg(concs[0].body.left)
            case_r = Neg(concs[0].body.right)
        if concs[1] != d.conclusion or concs[2] != d.conclusion:
            _fail(path, rule, "both case branches must conclude the node's "
                              "conclusion")
        assert d.discharge is not None
        if len(d.discharge) != 2:
            _fail(path, rule, "discharge must name exactly two labels")
        label_l, label_r = d.discharge
        open_major, dis_major = results[0]
        open_l, dis_l = results[1]
        open_r, dis_r = results[2]
        for label in (label_l, label_r):
            if label in dis_major | dis_l | dis_r:
                _fail(path, rule, f"label {label!r} is already discharged "
                                  f"deeper in the tree")
        _discharge(path, rule, open_l, label_l, case_l)
        _discharge(path, rule, open_r, label_r, case_r)
        if label_l in open_major or label_l in open_r:
            _fail(path, rule, f"discharged label {label_l!r} is still open "
                              f"outside its case branch")
        if label_r in open_major or label_r in open_l:
            _fail(path, rule, f"discharged label {label_r!r} is still open "
                              f"outside its case branch")
        open_map, discharged = _merge(
            path, rule, [(open_major, dis_major), (open_l, dis_l), (open_r, dis_r)])
        return open_map, discharged | {label_l, label_r}

    return _merge(path, rule, results)


# The reference search: ``search`` as it was before its matrix check
# moved to the first case split.  It checks the sequent first and only then
# runs the search body, which finds the verdict already made.  The body is
# ``prove._prove`` as it was before it read a goal as one of two shapes: it
# tries the introductions for ``&``, ``|``, ``~&`` and ``~|`` in four
# blocks.  ``search`` must give the same result, labels included, on every
# sequent.

def reference_search(s: Sequent, depth: int) -> Derivation | None:
    """``search`` in the eager order: the matrix check, then ``reference_prove``."""
    try:
        if not is_consequence(s).valid:
            return None
    except CapExceededError:
        pass
    state = prove._Search(s)
    state.valid = True
    assumptions = [(f"p{i}", p) for i, p in enumerate(dict.fromkeys(s.premises), 1)]
    return reference_prove(s.conclusion, assumptions, depth, state)


def reference_prove(goal: Formula, assumptions: list[tuple[str, Formula]],
                    depth: int, state: prove._Search) -> Derivation | None:
    """``prove._prove`` with one introduction block per rule."""
    label = _find(assumptions, goal)
    if label is not None:
        return hyp(label, goal)

    # shapes are tested in place: building ~~A just to compare costs two nodes
    if isinstance(goal, Or) and _is_double_negation(goal.right, goal.left):
        return nn2(goal.left)

    if depth >= 2:
        doubled = [(label, g) for label, g in assumptions
                   if isinstance(g, Neg) and isinstance(g.body, Neg)]
        for label_a, f in assumptions:
            for label_nn, g in doubled:
                if g.body.body == f:
                    return nn1(hyp(label_a, f), hyp(label_nn, g), goal)

        # introduction rules on the goal's shape
        if isinstance(goal, And):
            left = reference_prove(goal.left, assumptions, depth - 1, state)
            if left is not None:
                right = reference_prove(goal.right, assumptions, depth - 1, state)
                if right is not None:
                    return and_i(left, right)
        elif isinstance(goal, Or):
            left = reference_prove(goal.left, assumptions, depth - 1, state)
            if left is not None:
                return or_i_l(left, goal.right)
            right = reference_prove(goal.right, assumptions, depth - 1, state)
            if right is not None:
                return or_i_r(right, goal.left)
        elif isinstance(goal, Neg) and isinstance(goal.body, And):
            left = reference_prove(Neg(goal.body.left), assumptions, depth - 1, state)
            if left is not None:
                right = reference_prove(Neg(goal.body.right), assumptions, depth - 1, state)
                if right is not None:
                    return nand_i(left, right)
        elif isinstance(goal, Neg) and isinstance(goal.body, Or):
            left = reference_prove(Neg(goal.body.left), assumptions, depth - 1, state)
            if left is not None:
                return nor_i_l(left, goal.body.right)
            right = reference_prove(Neg(goal.body.right), assumptions, depth - 1, state)
            if right is not None:
                return nor_i_r(right, goal.body.left)

        # single-step eliminations from assumptions
        for label_a, f in assumptions:
            if isinstance(f, And):
                if f.left == goal:
                    return and_e_l(hyp(label_a, f))
                if f.right == goal:
                    return and_e_r(hyp(label_a, f))
            if isinstance(f, Neg) and isinstance(f.body, And) and isinstance(goal, Neg):
                if goal.body == f.body.left:
                    return nand_e_l(hyp(label_a, f))
                if goal.body == f.body.right:
                    return nand_e_r(hyp(label_a, f))

        # case analysis, tried last
        for label_a, f in assumptions:
            if isinstance(f, Or):
                cases: tuple[Formula, Formula] = (f.left, f.right)
                build = or_e
            elif isinstance(f, Neg) and isinstance(f.body, Or):
                cases = (Neg(f.body.left), Neg(f.body.right))
                build = nor_e
            else:
                continue
            if not state.may_split():  # invalid: no split can find a derivation
                return None
            label_l = f"h{next(state.labels)}"
            label_r = f"h{next(state.labels)}"
            left = reference_prove(goal, assumptions + [(label_l, cases[0])], depth - 1, state)
            if left is None:
                continue
            right = reference_prove(goal, assumptions + [(label_r, cases[1])], depth - 1, state)
            if right is None:
                continue
            return build(hyp(label_a, f), left, right, (label_l, label_r))

    return None


# The reference corpus: the bundled derivations as the rule builders made
# them before the corpus became a data file.  ``nd.corpus`` must give the
# same entries, in the same order.

def reference_corpus() -> list[tuple[str, Derivation]]:
    """``(name, derivation)`` of each corpus entry, built by the builders."""
    p, q = Atom("p"), Atom("q")
    np_, nq = Neg(p), Neg(q)
    return [
        ("nn2", nn2(p)),
        ("nn1-explosion", nn1(hyp("h1", p), hyp("h2", Neg(Neg(p))), q)),
        ("andI-andE-roundtrip",
         and_i(and_e_l(hyp("h1", And(p, q))), and_e_r(hyp("h1", And(p, q))))),
        ("orE-roundtrip",
         or_e(hyp("h1", Or(p, p)), hyp("h2", p), hyp("h3", p), ("h2", "h3"))),
        ("orI-orE-roundtrip",
         or_e(or_i_l(hyp("h1", p), p), hyp("h2", p), hyp("h3", p), ("h2", "h3"))),
        ("deMorgan-and-L", nand_e_l(hyp("h1", Neg(And(p, q))))),
        ("deMorgan-nand-to-conj",
         and_i(nand_e_l(hyp("h1", Neg(And(p, q)))), nand_e_r(hyp("h1", Neg(And(p, q)))))),
        ("deMorgan-conj-to-nand",
         nand_i(and_e_l(hyp("h1", And(np_, nq))), and_e_r(hyp("h1", And(np_, nq))))),
        ("deMorgan-nor-to-disj",
         nor_e(hyp("h1", Neg(Or(p, q))), or_i_l(hyp("h2", np_), nq),
               or_i_r(hyp("h3", nq), np_), ("h2", "h3"))),
        ("deMorgan-disj-to-nor",
         or_e(hyp("h1", Or(np_, nq)), nor_i_l(hyp("h2", np_), q),
              nor_i_r(hyp("h3", nq), p), ("h2", "h3"))),
    ]


# The reference parser: a tokenizer of frozen-dataclass tokens and a
# recursive-descent parser with one token of lookahead.  The library's
# one-pass parser must give the same formula, or the same error position
# and message, on every input.

_TOK_NAME = "name"
_TOK_NOT = "~"
_TOK_AND = "&"
_TOK_OR = "|"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_COMMA = ","
_TOK_TURNSTILE = "|-"
_TOK_EOF = "end of input"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int  # 1-based offset of the first character


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c == "|" and i + 1 < n and text[i + 1] == "-":
            tokens.append(_Token(_TOK_TURNSTILE, "|-", pos))
            i += 2
        elif c in "~&|(),":
            kind = {"~": _TOK_NOT, "&": _TOK_AND, "|": _TOK_OR,
                    "(": _TOK_LPAREN, ")": _TOK_RPAREN, ",": _TOK_COMMA}[c]
            tokens.append(_Token(kind, c, pos))
            i += 1
        elif c.islower() and c.isascii() and c.isalpha():
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] == "_")):
                j += 1
            tokens.append(_Token(_TOK_NAME, text[i:j], pos))
            i = j
        else:
            raise ParseError(pos, f"unexpected character {c!r}")
    tokens.append(_Token(_TOK_EOF, "", n + 1))
    return tokens


class _Parser:
    """Each rule returns a formula with its depth, so the depth bound
    covers chains of binary connectives as well as nesting; ``level``
    counts the parentheses the parser is inside, which bounds its own
    recursion."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.level = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.position, f"expected '{kind}'")
        return self.advance()

    def formula(self) -> Formula:
        return self.disj()[0]

    @staticmethod
    def too_deep(token: _Token) -> ParseError:
        return ParseError(token.position, f"formula nested deeper than {MAX_DEPTH} levels")

    def disj(self) -> tuple[Formula, int]:
        left, depth = self.conj()
        while self.peek().kind == _TOK_OR:
            token = self.advance()
            right, right_depth = self.conj()
            left, depth = Or(left, right), (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_DEPTH:
                raise self.too_deep(token)
        return left, depth

    def conj(self) -> tuple[Formula, int]:
        left, depth = self.neg()
        while self.peek().kind == _TOK_AND:
            token = self.advance()
            right, right_depth = self.neg()
            left, depth = And(left, right), (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_DEPTH:
                raise self.too_deep(token)
        return left, depth

    def neg(self) -> tuple[Formula, int]:
        token = self.advance()
        if token.kind == _TOK_NAME:
            return Atom(token.text), 0
        # a run of ~ is read in a loop and wrapped round its operand, so
        # only parentheses make the parser recurse
        first = self.index - 1
        while token.kind == _TOK_NOT:
            token = self.advance()
        negations = self.index - 1 - first
        if token.kind == _TOK_NAME:
            f, depth = Atom(token.text), 0
        elif token.kind == _TOK_LPAREN:
            self.level += 1
            if self.level > MAX_DEPTH:
                raise self.too_deep(token)
            f, depth = self.disj()
            self.expect(_TOK_RPAREN)
            self.level -= 1
        else:
            raise ParseError(token.position, "expected a formula")
        if depth + negations > MAX_DEPTH:
            # the ~ that takes the depth past the bound
            raise self.too_deep(self.tokens[first + negations - 1 - (MAX_DEPTH - depth)])
        for _ in range(negations):
            f = Neg(f)
        return f, depth + negations

    def end(self) -> None:
        token = self.peek()
        if token.kind != _TOK_EOF:
            raise ParseError(token.position, "unexpected trailing input")


def reference_parse(text: str) -> Formula:
    """Parse a single formula; raise :class:`ParseError` on bad input."""
    parser = _Parser(text)
    result = parser.formula()
    parser.end()
    return result


def reference_parse_sequent(text: str) -> Sequent:
    """Parse ``P1, P2 |- C``.  The premise list may be empty."""
    parser = _Parser(text)
    premises: list[Formula] = []
    if parser.peek().kind != _TOK_TURNSTILE:
        premises.append(parser.formula())
        while parser.peek().kind == _TOK_COMMA:
            parser.advance()
            premises.append(parser.formula())
    parser.expect(_TOK_TURNSTILE)
    conclusion = parser.formula()
    parser.end()
    return Sequent(tuple(premises), conclusion)


def reference_evaluate(f: Formula, interpretation) -> Value:
    """Value of ``f`` by recursion over the matrix tables."""
    if isinstance(f, Atom):
        try:
            return interpretation[f.name]
        except KeyError:
            raise UnboundVariableError(f.name) from None
    if isinstance(f, Neg):
        return NEG[reference_evaluate(f.body, interpretation)]
    if isinstance(f, And):
        return AND[(reference_evaluate(f.left, interpretation),
                    reference_evaluate(f.right, interpretation))]
    if isinstance(f, Or):
        return OR[(reference_evaluate(f.left, interpretation),
                   reference_evaluate(f.right, interpretation))]
    raise TypeError(f"not a formula: {f!r}")


def reference_program(formulas) -> tuple[list, list, list]:
    """``(nodes, roots, names)`` of ``engine.Program(formulas)``, compiled by
    an iterative walk that tests each node with ``isinstance`` and reads
    its children by field name."""
    index: dict = {}
    nodes: list = []
    variables: dict = {}
    node_of: dict = {}
    for root in formulas:
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in node_of:
                stack.pop()
                continue
            if isinstance(f, Atom):
                key = (0, variables.setdefault(f.name, len(variables)), 0)
            elif isinstance(f, Neg):
                body = node_of.get(id(f.body))
                if body is None:
                    stack.append(f.body)
                    continue
                key = (1, body, 0)
            elif isinstance(f, (And, Or)):
                left = node_of.get(id(f.left))
                if left is None:
                    stack.append(f.left)
                    continue
                right = node_of.get(id(f.right))
                if right is None:
                    stack.append(f.right)
                    continue
                key = (2 if isinstance(f, And) else 3, left, right)
            else:
                raise TypeError(f"not a formula: {f!r}")
            stack.pop()
            node = index.setdefault(key, len(nodes))
            if node == len(nodes):
                nodes.append(key)
            node_of[id(f)] = node
    return nodes, [node_of[id(root)] for root in formulas], list(variables)


def reference_release(program) -> list[set[int]]:
    """``Program._release`` as three sets per DAG node: a walk back from the
    last node, where each node releases the children it reads that no
    later node reads and that are not roots."""
    release, seen = [], set(program.roots)
    for op, a, b in reversed(program.nodes):
        read = set() if op == 0 else {a} if op == 1 else {a, b}
        release.append(read - seen)
        seen |= read
    return release[::-1]


_REF_PREC_OR, _REF_PREC_AND, _REF_PREC_NEG, _REF_PREC_ATOM = 1, 2, 3, 4


def _reference_prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _REF_PREC_OR
    if isinstance(f, And):
        return _REF_PREC_AND
    if isinstance(f, Neg):
        return _REF_PREC_NEG
    return _REF_PREC_ATOM


def _reference_fmt(f: Formula, min_prec: int) -> str:
    if _reference_prec(f) < min_prec:
        return "(" + _reference_fmt(f, _REF_PREC_OR) + ")"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Neg):
        return "~" + _reference_fmt(f.body, _REF_PREC_NEG)
    if isinstance(f, And):
        return (_reference_fmt(f.left, _REF_PREC_AND) + " & "
                + _reference_fmt(f.right, _REF_PREC_AND + 1))
    if isinstance(f, Or):
        return (_reference_fmt(f.left, _REF_PREC_OR) + " | "
                + _reference_fmt(f.right, _REF_PREC_OR + 1))
    raise TypeError(f"not a formula: {f!r}")


def reference_format_formula(f: Formula) -> str:
    """``format_formula(f)`` by a recursion that tests each node with
    ``isinstance`` and reads its children by field name."""
    return _reference_fmt(f, _REF_PREC_OR)


def reference_substitute(f: Formula, name: str, replacement: Formula) -> Formula:
    """``substitute(f, name, replacement)`` by an ``isinstance`` recursion."""
    if isinstance(f, Atom):
        return replacement if f.name == name else f
    if isinstance(f, Neg):
        return Neg(reference_substitute(f.body, name, replacement))
    if isinstance(f, And):
        return And(reference_substitute(f.left, name, replacement),
                   reference_substitute(f.right, name, replacement))
    if isinstance(f, Or):
        return Or(reference_substitute(f.left, name, replacement),
                  reference_substitute(f.right, name, replacement))
    raise TypeError(f"not a formula: {f!r}")


def reference_subformulas(f: Formula):
    """``subformulas(f)`` by recursive generators: preorder, left first."""
    yield f
    if isinstance(f, Neg):
        yield from reference_subformulas(f.body)
    elif isinstance(f, (And, Or)):
        yield from reference_subformulas(f.left)
        yield from reference_subformulas(f.right)


def reference_variables(f: Formula) -> list[str]:
    """Atom names of :func:`reference_subformulas`, first occurrences only."""
    seen: dict[str, None] = {}
    for sub in reference_subformulas(f):
        if isinstance(sub, Atom):
            seen.setdefault(sub.name)
    return list(seen)


def reference_rel_eval(option: OptionReading, f: Formula, assignment) -> TruthSet:
    """Truth set of ``f`` by recursion over the option's clauses."""
    if isinstance(f, Atom):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundVariableError(f.name) from None
    if isinstance(f, Neg):
        s = reference_rel_eval(option, f.body, assignment)
        truth = (not s.has0) if option.neg_truth is NegTruthClause.ZERO_ABSENT else s.has0
        falsity = s.has1 if option.neg_falsity is NegFalsityClause.ONE_PRESENT else not s.has1
        return TruthSet(truth, falsity)
    if isinstance(f, (And, Or)):
        a = reference_rel_eval(option, f.left, assignment)
        b = reference_rel_eval(option, f.right, assignment)
        either = option.falsity_style is FalsityStyle.EITHER
        if isinstance(f, And):
            return TruthSet(a.has1 and b.has1,
                            (a.has0 or b.has0) if either else (a.has0 and b.has0))
        return TruthSet(a.has1 or b.has1,
                        (a.has0 and b.has0) if either else (a.has0 or b.has0))
    raise TypeError(f"not a formula: {f!r}")


def reference_rel_designated(option: OptionReading, s: TruthSet) -> bool:
    """Does ``s`` have the property the option's consequence preserves?"""
    if option.preservation is Preservation.TRUTH:
        return s.has1
    if option.preservation is Preservation.NON_FALSITY:
        return not s.has0
    return s.has0


def designated_truth_sets(option: OptionReading) -> frozenset[TruthSet]:
    """Images of the designated matrix values under the option's map."""
    return frozenset(correspond(option, v) for v in DESIGNATED)


def _reference_evaluator(f: Formula, names: list[str], neg: list, conj: list, disj: list):
    """``f`` as a function of a tuple of value indices, one per name in ``names``,
    by recursion over the connective tables given as index tables."""
    if isinstance(f, Atom):
        return itemgetter(names.index(f.name))
    if isinstance(f, Neg):
        body = _reference_evaluator(f.body, names, neg, conj, disj)
        return lambda values: neg[body(values)]
    if isinstance(f, (And, Or)):
        table = conj if isinstance(f, And) else disj
        left = _reference_evaluator(f.left, names, neg, conj, disj)
        right = _reference_evaluator(f.right, names, neg, conj, disj)
        return lambda values: table[left(values)][right(values)]
    raise TypeError(f"not a formula: {f!r}")


def reference_consequence(
    s: Sequent, option: OptionReading | None = None,
) -> tuple[bool, dict | None, int]:
    """``(valid, first witness, checked)`` by enumerating interpretations
    in :data:`WITNESS_ORDER` (its image under ``option``, which selects
    the option's clauses), evaluating each formula with the reference
    evaluators.  Each connective's table is read off them once, over
    indices into that order, and each formula is built into a function of
    those indices once per sequent."""
    names = sequent_variables(s)
    if option is None:
        order, evaluate, designated = WITNESS_ORDER, reference_evaluate, DESIGNATED.__contains__
    else:
        order = [correspond(option, v) for v in WITNESS_ORDER]
        evaluate = partial(reference_rel_eval, option)
        designated = partial(reference_rel_designated, option)
    a, b, indices = Atom("a"), Atom("b"), range(len(order))

    def table(f: Formula) -> list[list[int]]:
        return [[order.index(evaluate(f, {"a": order[x], "b": order[y]})) for y in indices]
                for x in indices]
    neg = [row[0] for row in table(Neg(a))]
    conj, disj = table(And(a, b)), table(Or(a, b))
    good = [designated(v) for v in order]
    premises = [_reference_evaluator(p, names, neg, conj, disj) for p in s.premises]
    conclusion = _reference_evaluator(s.conclusion, names, neg, conj, disj)
    checked = 0
    for values in product(indices, repeat=len(names)):
        checked += 1
        if all(good[p(values)] for p in premises) and not good[conclusion(values)]:
            return False, {name: order[v] for name, v in zip(names, values)}, checked
    return True, None, checked


def reference_mismatches(option: OptionReading, f: Formula) -> list[Mismatch]:
    """Interpretations, in ``CANONICAL_ORDER``, under which translating the
    matrix value of ``f`` differs from evaluating the option's clauses on
    translated atoms."""
    mismatches = []
    for inter in interpretations(variables(f)):
        via_map = correspond(option, reference_evaluate(f, inter))
        assignment = {name: correspond(option, v) for name, v in inter.items()}
        via_clauses = reference_rel_eval(option, f, assignment)
        if via_map != via_clauses:
            mismatches.append(Mismatch(inter, via_map, via_clauses))
    return mismatches


def deep_formula_texts(depth: int) -> dict[str, str]:
    """Formulas of exactly ``depth`` nested connectives, by shape."""
    return {
        "negations": "~" * depth + "p",
        "left chain": " & ".join(["p"] * (depth + 1)),
        "parenthesised right chain": "p | (" * (depth - 1) + "p | q" + ")" * (depth - 1),
        "negated chain": "~(" + " & ".join("pq"[k % 2] for k in range(depth)) + ")",
    }


def and_elim_chain(levels: int, top: int = 0) -> str:
    """JSON text of a valid derivation ``levels`` nodes deep: a chain of
    AndE_L whose root concludes a left chain of ``top`` conjunctions over
    ``p``, each premise conjoining one more ``p``, down to a Hyp.  Built as
    text, since the JSON encoder recurses per level."""
    def conj(k: int) -> str:
        return " & ".join(["p"] * (k + 1))

    head = "".join(f'{{"rule": "AndE_L", "conclusion": "{conj(top + k)}", "premises": ['
                   for k in range(levels - 1))
    foot = f'{{"rule": "Hyp", "label": "a", "conclusion": "{conj(top + levels - 1)}"}}'
    return head + foot + "]}" * (levels - 1)


def all_unary_tables() -> list[UnaryTable]:
    """All 256 unary functions on the four-element carrier."""
    return [UnaryTable(outs) for outs in product(CANONICAL_ORDER, repeat=4)]


def is_unary_reducible(f: BinaryTable, tables=None) -> bool:
    """Literal reducibility check: does some unary g tabulate f?

    Quantifies g over all 256 unary tables (or a supplied collection);
    an independent cross-check of ``fc.is_essentially_binary``.
    """
    values = CANONICAL_ORDER
    for g in all_unary_tables() if tables is None else tables:
        if all(f.apply(a, b) == g.apply(a) for a in values for b in values):
            return True
        if all(f.apply(a, b) == g.apply(b) for a in values for b in values):
            return True
    return False


def reference_truthtable_output(f: Formula, json_out: bool, option: str | None = None) -> str:
    """Stdout of ``cnl4 truthtable`` on ``f`` rendered from the whole
    ``truth_table``: its lines joined, or its record as one ``json.dumps``.
    With ``option``, values print as that option's t/b/n/f (``--fde``)."""
    def name(v: Value) -> str:
        return v.value if option is None else get_option(option).value_map[v].value

    names, text, rows = variables(f), format_formula(f), truth_table(f)
    if json_out:
        return json.dumps({"formula": text, "variables": names,
                           "rows": [{"assignment": {k: name(v) for k, v in inter.items()},
                                     "value": name(value)} for inter, value in rows]},
                          indent=2, sort_keys=True) + "\n"
    lines = [" ".join(names) + " | " + text]
    lines += [" ".join(name(inter[k]) for k in names) + " | " + name(value)
              for inter, value in rows]
    return "\n".join(lines) + "\n"
