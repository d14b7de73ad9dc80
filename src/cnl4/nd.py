"""Natural deduction: derivation trees, checking, JSON, bundled corpus.

The calculus is ``Hyp``, ``NN1`` (from A and ~~A infer anything), ``NN2``
(A | ~~A, a premise-free axiom) and four schemas: &-intro, &-elim, |-intro
and |-elim, each read plain or under ~.  Under ~ a schema's formulas are
negated (``NAndI``, ``NAndE_L``, ...), except |-elim's case conclusions:
``NOrE`` is the case rule over ~(A | B).

Derivations are finite trees.  ``Hyp`` leaves carry a label; ``OrE`` and
``NOrE`` nodes carry a pair of labels naming the hypotheses their second
and third premises may discharge.  ``check`` validates every node's
schema and the discharge discipline and returns the open assumptions
together with the conclusion.

Checking, loading, the corpus and rendering are syntax alone, so this
module loads ``matrix`` only when it first decides a sequent, in
:func:`soundness_check` or for search.  Bounded search lives in
:mod:`cnl4.prove`, which ``check-proof`` and ``corpus`` never load;
``nd.search`` resolves there on first read.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import partial
from typing import NamedTuple

from . import _bind, _lazy_getattr
from .formula import And, Formula, Neg, Or, Sequent, format_formula, parse

#: The names this module takes from ``matrix``, bound when it first decides
#: a sequent, or when a caller first reads ``nd.<name>`` (a tracer that
#: replaces ``is_consequence`` with a wrapper does, and so does search's
#: check at its first case split).
_MATRIX_NAMES = ("CapExceededError", "is_consequence")
__getattr__ = _lazy_getattr(globals(), (("matrix", _MATRIX_NAMES), ("prove", ("search",))))

#: Most nodes on a path from the root of a proof file.  Reading, loading
#: and checking recurse per level.  Under pytest with 150 extra frames on
#: the stack, a proof file 401 levels deep with formulas at
#: :data:`~cnl4.formula.MAX_DEPTH` reads, loads and checks; at 411 the JSON
#: reader runs out, while loading and checking alone fit 801 (Python 3.11).
MAX_PROOF_DEPTH = 100


class Rule(Enum):
    HYP = "Hyp"
    AND_I = "AndI"
    AND_E_L = "AndE_L"
    AND_E_R = "AndE_R"
    OR_I_L = "OrI_L"
    OR_I_R = "OrI_R"
    OR_E = "OrE"
    NN1 = "NN1"
    NN2 = "NN2"
    NAND_I = "NAndI"
    NAND_E_L = "NAndE_L"
    NAND_E_R = "NAndE_R"
    NOR_I_L = "NOrI_L"
    NOR_I_R = "NOrI_R"
    NOR_E = "NOrE"

    __hash__ = object.__hash__  # by identity, in C: Enum's own runs Python code per _ARITY read


# a ``Rule.X`` read runs the enum metaclass's __getattr__: 16 globals' worth
(HYP, AND_I, AND_E_L, AND_E_R, OR_I_L, OR_I_R, OR_E, NN1, NN2,
 NAND_I, NAND_E_L, NAND_E_R, NOR_I_L, NOR_I_R, NOR_E) = Rule
#: Rules whose nodes discharge hypotheses (second and third premises).
DISCHARGING_RULES = frozenset((OR_E, NOR_E))

_RULE_OF_NAME = {rule.value: rule for rule in Rule}

# The four schemas of the &/| rules, each with its number of premises.
_AND_INTRO, _AND_ELIM, _OR_INTRO, _OR_ELIM = ("&I", 2), ("&E", 1), ("|I", 1), ("|E", 3)
#: Each &/| rule as (schema, read under ~, side): the side is None, or 1 or 2, the
#: field index of the left or right part it takes or builds (``And(a, b)`` is ``(And, a, b)``).
_SCHEMA = {
    AND_I: (_AND_INTRO, False, None), NAND_I: (_AND_INTRO, True, None),
    AND_E_L: (_AND_ELIM, False, 1), AND_E_R: (_AND_ELIM, False, 2),
    NAND_E_L: (_AND_ELIM, True, 1), NAND_E_R: (_AND_ELIM, True, 2),
    OR_I_L: (_OR_INTRO, False, 1), OR_I_R: (_OR_INTRO, False, 2),
    NOR_I_L: (_OR_INTRO, True, 1), NOR_I_R: (_OR_INTRO, True, 2),
    OR_E: (_OR_ELIM, False, None), NOR_E: (_OR_ELIM, True, None),
}
#: How many premises a node of each rule has.
_ARITY = {HYP: 0, NN2: 0, NN1: 2, **{rule: schema[1] for rule, (schema, _, _) in _SCHEMA.items()}}


class Derivation(NamedTuple):
    """One node of a derivation tree.

    ``discharge`` is a pair (left-case label, right-case label), present
    exactly on OrE/NOrE nodes; ``label`` is present exactly on Hyp leaves.
    """

    rule: Rule
    conclusion: Formula
    premises: tuple[Derivation, ...] = ()
    discharge: tuple[str, str] | None = None
    label: str | None = None


class CheckedSequent(NamedTuple):
    """Open assumptions (as a set of formulas) and conclusion."""

    open_assumptions: frozenset[Formula]
    conclusion: Formula


class DerivationError(Exception):
    """A node violates its rule schema or the discharge discipline.

    ``path`` locates the node from the root by premise indices.
    """

    def __init__(self, path: tuple[int, ...], rule: Rule | None, message: str) -> None:
        super().__init__(path, rule, message)
        self.path = path
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.path) if self.path else "root"
        name = self.rule.value if self.rule is not None else "?"
        return f"{name} at {where}: {self.message}"


class ProofFormatError(Exception):
    """A proof file does not follow the JSON tree format."""


# --------------------------------------------------------------------------
# Builders.  These compute the conclusion a rule instance must carry;
# check() remains the authority on well-formedness.  The &/| rules' builders
# are one builder per schema, bound to the rule, which under ~ reads bodies.

def hyp(label: str, f: Formula) -> Derivation:
    return Derivation(HYP, f, label=label)


def nn1(first: Derivation, second: Derivation, conclusion: Formula) -> Derivation:
    return Derivation(NN1, conclusion, (first, second))


def nn2(a: Formula) -> Derivation:
    return Derivation(NN2, Or(a, Neg(Neg(a))))


def _body(f: Formula) -> Formula | None:
    return f.body if isinstance(f, Neg) else None  # None: f is no negation


def _and_intro(rule: Rule, left: Derivation, right: Derivation) -> Derivation:
    _, negated, _ = _SCHEMA[rule]
    a, b = left.conclusion, right.conclusion
    if negated:
        if not (isinstance(a, Neg) and isinstance(b, Neg)):
            raise ValueError(f"{rule.value} needs two negation premises")
        a, b = a.body, b.body
    c = And(a, b)
    return Derivation(rule, Neg(c) if negated else c, (left, right))


def _and_elim(rule: Rule, premise: Derivation) -> Derivation:
    _, negated, side = _SCHEMA[rule]
    f = premise.conclusion
    if negated:
        f = _body(f)
    if not isinstance(f, And):
        raise ValueError(f"{rule.value} needs a {'negated ' if negated else ''}conjunction premise")
    return Derivation(rule, Neg(f[side]) if negated else f[side], (premise,))


def _or_intro(rule: Rule, premise: Derivation, other: Formula) -> Derivation:
    _, negated, side = _SCHEMA[rule]
    f = premise.conclusion
    if negated:
        if not isinstance(f, Neg):
            raise ValueError(f"{rule.value} needs a negation premise")
        f = f.body
    c = Or(f, other) if side == 1 else Or(other, f)
    return Derivation(rule, Neg(c) if negated else c, (premise,))


def _or_elim(rule: Rule, major: Derivation, left: Derivation, right: Derivation,
             labels: tuple[str, str]) -> Derivation:
    return Derivation(rule, left.conclusion, (major, left, right), discharge=labels)


and_i = partial(_and_intro, AND_I)
nand_i = partial(_and_intro, NAND_I)
and_e_l = partial(_and_elim, AND_E_L)
and_e_r = partial(_and_elim, AND_E_R)
nand_e_l = partial(_and_elim, NAND_E_L)
nand_e_r = partial(_and_elim, NAND_E_R)
or_i_l = partial(_or_intro, OR_I_L)
or_i_r = partial(_or_intro, OR_I_R)
nor_i_l = partial(_or_intro, NOR_I_L)
nor_i_r = partial(_or_intro, NOR_I_R)
or_e = partial(_or_elim, OR_E)
nor_e = partial(_or_elim, NOR_E)


# --------------------------------------------------------------------------
# Checking

# open hypotheses: label -> {id: formula} it labels (normally one), so a Hyp
# leaf never hashes its formula; check's frozenset merges equal formulas.
# _check returns a fresh map and set, so its caller may merge them in place.
_Open = dict[str, dict[int, Formula]]


def check(d: Derivation) -> CheckedSequent:
    """Validate every node of ``d``; return open assumptions and conclusion.

    Raises :class:`DerivationError` naming the offending node's rule and
    path on the first violation found.
    """
    open_map, _ = _check(d)
    formulas = frozenset(f for fs in open_map.values() for f in fs.values())
    return CheckedSequent(formulas, d.conclusion)


def _is_double_negation(g: Formula, f: Formula) -> bool:
    """``g == Neg(Neg(f))``, without building either node."""
    return isinstance(g, Neg) and isinstance(g.body, Neg) and g.body.body == f


def _fail(rule: Rule | None, message: str) -> None:
    raise DerivationError((), rule, message)


def _expect_arity(rule: Rule, premises: tuple[Derivation, ...]) -> None:
    if len(premises) != (n := _ARITY[rule]):
        _fail(rule, f"expected {n} premises, found {len(premises)}")


def _merge(rule: Rule, results: list[tuple[_Open, set[str]]]) -> tuple[_Open, set[str]]:
    if len(results) == 1:
        return results[0]
    # A label discharged inside one subtree may not be open or discharged
    # in a sibling subtree.
    for i, (_, discharged_i) in enumerate(results):
        if not discharged_i:
            continue
        for k, (open_k, discharged_k) in enumerate(results):
            if i == k:
                continue
            clash = discharged_i & (set(open_k) | discharged_k)
            if clash:
                label = sorted(clash)[0]
                _fail(rule, f"label {label!r} is discharged in one branch but "
                            f"used in a sibling branch")
    merged, discharged = results[0]
    for open_i, discharged_i in results:
        if len(open_i) > len(merged):
            merged, discharged = open_i, discharged_i
    for open_i, discharged_i in results:
        if open_i is not merged:
            for label, formulas in open_i.items():
                own = merged.get(label)
                if own is None:
                    merged[label] = formulas
                else:
                    own |= formulas
            discharged |= discharged_i
    return merged, discharged


def _discharge(rule: Rule, open_map: _Open, label: str, case: Formula) -> None:
    # report the mismatch that renders first, as _merge reports labels
    wrong = sorted(format_formula(f) for f in open_map.pop(label, {}).values() if f != case)
    if wrong:
        _fail(rule, f"hypothesis {label!r} is {wrong[0]}, "
                    f"but the case formula is {format_formula(case)}")


def _check(d: Derivation) -> tuple[_Open, set[str]]:
    rule, c, premises, discharge, label = d
    if not isinstance(rule, Rule):
        _fail(None, f"unknown rule {rule!r}")
    if (label is not None) != (rule is HYP):
        _fail(rule, "only Hyp nodes carry a hypothesis label")
    if (discharge is not None) != (rule in DISCHARGING_RULES):
        _fail(rule, "only OrE/NOrE nodes carry discharge labels")

    if rule is HYP or rule is NN2:  # leaves: no premises to check first
        _expect_arity(rule, premises)
        if rule is HYP:
            if not label:
                _fail(rule, "hypothesis label must be a non-empty string")
            return {label: {id(c): c}}, set()
        if not (isinstance(c, Or) and _is_double_negation(c.right, c.left)):
            _fail(rule, "conclusion must have the form A | ~~A")
        return {}, set()

    results = []
    concs = []
    try:
        for p in premises:
            results.append(_check(p))
            concs.append(p.conclusion)
    except DerivationError as exc:  # a failure gets its path as it unwinds
        exc.path = (len(results),) + exc.path
        raise

    _expect_arity(rule, premises)
    if rule is NN1:  # conclusion arbitrary
        if not _is_double_negation(concs[1], concs[0]):
            _fail(rule, "second premise must be the double negation of the first")
        return _merge(rule, results)

    schema, negated, side = _SCHEMA[rule]
    major = concs[0]
    if negated:  # the bodies of the negated formulas: None where one is no negation
        major = _body(major)
        if schema is not _OR_ELIM:  # |-elim's conclusion stands as it is
            c = _body(c)
    if schema is _AND_INTRO:
        minor = concs[1]
        if negated:
            if not (isinstance(concs[0], Neg) and isinstance(minor, Neg)):
                _fail(rule, "premises must be negations")
            minor = minor.body
        if not (isinstance(c, And) and (c.left, c.right) == (major, minor)):
            _fail(rule, "conclusion must negate the conjunction of the premises' bodies"
                  if negated else "conclusion must conjoin the two premises in order")
    elif schema is _AND_ELIM:
        if not isinstance(major, And):
            _fail(rule, f"premise must be a {'negated ' if negated else ''}conjunction")
        if c != major[side]:
            wanted = major[side]
            _fail(rule, f"conclusion must be {format_formula(Neg(wanted) if negated else wanted)}")
    elif schema is _OR_INTRO:
        if negated and not isinstance(concs[0], Neg):
            _fail(rule, "premise must be a negation")
        if not isinstance(c, Or):
            _fail(rule, f"conclusion must be a {'negated ' if negated else ''}disjunction")
        if c[side] != major:
            _fail(rule, "premise must negate the matching disjunct" if negated
                  else "premise must be the matching disjunct")
    else:  # _OR_ELIM
        if not isinstance(major, Or):
            _fail(rule, f"major premise must be a {'negated ' if negated else ''}disjunction")
        case_l, case_r = major.left, major.right
        if negated:  # the case formulas are negated too
            case_l, case_r = Neg(case_l), Neg(case_r)
        if (concs[1], concs[2]) != (c, c):
            _fail(rule, "both case branches must conclude the node's conclusion")
        assert discharge is not None
        if len(discharge) != 2:
            _fail(rule, "discharge must name exactly two labels")
        label_l, label_r = discharge
        (open_major, dis_major), (open_l, dis_l), (open_r, dis_r) = results
        for label in (label_l, label_r):
            if label in dis_major or label in dis_l or label in dis_r:
                _fail(rule, f"label {label!r} is already discharged deeper in the tree")
        _discharge(rule, open_l, label_l, case_l)
        _discharge(rule, open_r, label_r, case_r)
        for label, other_case in ((label_l, open_r), (label_r, open_l)):
            if label in open_major or label in other_case:
                _fail(rule, f"discharged label {label!r} is still open outside its case branch")
        open_map, discharged = _merge(rule, results)
        return open_map, discharged | {label_l, label_r}

    return _merge(rule, results)


def soundness_check(d: Derivation) -> bool:
    """True iff ``d`` checks and its sequent is matrix-valid."""
    _bind(globals(), "matrix", _MATRIX_NAMES)
    try:
        return is_consequence(derivation_sequent(d)).valid
    except DerivationError:
        return False


def derivation_sequent(d: Derivation) -> Sequent:
    """The sequent established by ``d`` (premises sorted by rendering)."""
    seq = check(d)
    premises = tuple(sorted(seq.open_assumptions, key=format_formula))
    return Sequent(premises, seq.conclusion)


# --------------------------------------------------------------------------
# Bundled corpus

class CorpusEntry(NamedTuple):
    name: str
    derivation: Derivation


#: The corpus file: a JSON list of ``{"name": ..., "derivation": ...}``
#: objects, each derivation in the JSON proof format.
_CORPUS_FILE = os.path.join(os.path.dirname(__file__), "data", "corpus.json")


def corpus() -> list[CorpusEntry]:
    """Named derivations exercising every rule, loaded from the corpus file.

    Includes the double-negation axiom and explosion, intro/elim round
    trips for & and |, and all four directions of the de Morgan
    interderivabilities.
    """
    import json  # the corpus is the only JSON text this module reads

    with open(_CORPUS_FILE, encoding="utf-8") as handle:
        entries = json.load(handle)
    return [CorpusEntry(e["name"], from_json_dict(e["derivation"])) for e in entries]


# --------------------------------------------------------------------------
# JSON proof files

def to_json_dict(d: Derivation) -> dict:
    obj: dict = {"rule": d.rule.value, "conclusion": format_formula(d.conclusion)}
    obj["premises"] = [to_json_dict(p) for p in d.premises]
    if d.discharge is not None:
        obj["discharge"] = list(d.discharge)
    if d.label is not None:
        obj["label"] = d.label
    return obj


def from_json_dict(obj: object) -> Derivation:
    """Build a derivation from the JSON tree format.

    Raises :class:`ProofFormatError` for structural problems, including a
    tree deeper than :data:`MAX_PROOF_DEPTH`; formula text is parsed with
    the usual grammar.  Equal conclusion texts within one tree are parsed
    once, and every formula node of the tree is shared: equal subformulas
    are one object, within a conclusion and across conclusions.
    """
    return _from_json(obj, 1, {}, {})


def _from_json(obj: object, depth: int, parsed: dict[str, Formula], nodes: dict) -> Derivation:
    if depth > MAX_PROOF_DEPTH:
        raise ProofFormatError(f"proof nested deeper than {MAX_PROOF_DEPTH} levels")
    if not isinstance(obj, dict):
        raise ProofFormatError("proof node must be a JSON object")
    if "rule" not in obj:
        raise ProofFormatError("proof node is missing 'rule'")
    name = obj["rule"]
    # only a string names a rule; a JSON array or object is not even hashable
    rule = _RULE_OF_NAME.get(name) if isinstance(name, str) else None
    if rule is None:
        raise ProofFormatError(f"unknown rule {name!r}")
    if "conclusion" not in obj:
        raise ProofFormatError("proof node is missing 'conclusion'")
    text = obj["conclusion"]
    if not isinstance(text, str):
        raise ProofFormatError("'conclusion' must be a string")
    conclusion = parsed.get(text)
    if conclusion is None:
        conclusion = parsed[text] = parse(text, nodes)
    premises = obj.get("premises", [])
    if not isinstance(premises, list):
        raise ProofFormatError("'premises' must be an array")
    discharge = None
    if rule in DISCHARGING_RULES:
        raw = obj.get("discharge")
        if (not isinstance(raw, list) or len(raw) != 2
                or not all(isinstance(x, str) for x in raw)):
            raise ProofFormatError(f"{rule.value} needs a 'discharge' array "
                                   f"of two label strings")
        discharge = (raw[0], raw[1])
    elif "discharge" in obj:
        raise ProofFormatError(f"{rule.value} must not carry 'discharge'")
    label = None
    if rule is HYP:
        raw_label = obj.get("label")
        if not isinstance(raw_label, str) or not raw_label:
            raise ProofFormatError("Hyp needs a non-empty 'label' string")
        label = raw_label
    elif "label" in obj:
        raise ProofFormatError(f"{rule.value} must not carry 'label'")
    kids = []
    for p in premises:
        kids.append(_from_json(p, depth + 1, parsed, nodes))
    # tuple.__new__ skips Derivation's Python-level __new__
    return tuple.__new__(Derivation, (rule, conclusion, tuple(kids), discharge, label))


def render_derivation(d: Derivation, indent: int = 0) -> str:
    """Indented one-node-per-line rendering of a derivation tree."""
    label = f" [{d.label}]" if d.rule is HYP else ""
    line = f"{'  ' * indent}{d.rule.value}{label} {format_formula(d.conclusion)}"
    if d.discharge is not None:
        line += f"  [discharges {d.discharge[0]}, {d.discharge[1]}]"
    return "\n".join([line] + [render_derivation(p, indent + 1) for p in d.premises])
