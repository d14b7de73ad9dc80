"""Natural deduction: derivation trees, checking, JSON, bundled corpus.

The calculus has fifteen rules.  Alongside the usual introduction and
elimination rules for & and |, double negation is governed by two rules
(from A and ~~A infer anything; A | ~~A as a premise-free axiom) and the
remaining rules push ~ through & and | in both directions, with a case
rule over ~(A | B) mirroring disjunction elimination.

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
from typing import NamedTuple

from . import _bind, _lazy_getattr
from .formula import And, Formula, Neg, Or, Sequent, format_formula, parse

#: The names this module takes from ``matrix``, bound when it first decides
#: a sequent, or when a caller first reads ``nd.<name>`` (a tracer that
#: replaces ``is_consequence`` with a wrapper does, and so does search's
#: check at its first case split).
_MATRIX_NAMES = ("DEFAULT_CAP", "CapExceededError", "is_consequence")
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
# ``rule in _DISCHARGING`` compares by identity and never hashes a Rule
_DISCHARGING = (OR_E, NOR_E)
#: Rules whose nodes discharge hypotheses (second and third premises).
DISCHARGING_RULES = frozenset(_DISCHARGING)

_RULE_OF_NAME = {rule.value: rule for rule in Rule}
#: How many premises a node of each rule has.
_ARITY = {HYP: 0, NN2: 0, AND_I: 2, NN1: 2, NAND_I: 2, OR_E: 3, NOR_E: 3,
          **dict.fromkeys((AND_E_L, AND_E_R, OR_I_L, OR_I_R,
                           NAND_E_L, NAND_E_R, NOR_I_L, NOR_I_R), 1)}


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
# check() remains the authority on well-formedness.

def hyp(label: str, f: Formula) -> Derivation:
    return Derivation(HYP, f, label=label)


def and_i(left: Derivation, right: Derivation) -> Derivation:
    return Derivation(AND_I, And(left.conclusion, right.conclusion), (left, right))


def and_e_l(premise: Derivation) -> Derivation:
    if not isinstance(premise.conclusion, And):
        raise ValueError("AndE_L needs a conjunction premise")
    return Derivation(AND_E_L, premise.conclusion.left, (premise,))


def and_e_r(premise: Derivation) -> Derivation:
    if not isinstance(premise.conclusion, And):
        raise ValueError("AndE_R needs a conjunction premise")
    return Derivation(AND_E_R, premise.conclusion.right, (premise,))


def or_i_l(premise: Derivation, right: Formula) -> Derivation:
    return Derivation(OR_I_L, Or(premise.conclusion, right), (premise,))


def or_i_r(premise: Derivation, left: Formula) -> Derivation:
    return Derivation(OR_I_R, Or(left, premise.conclusion), (premise,))


def or_e(major: Derivation, left: Derivation, right: Derivation,
         labels: tuple[str, str]) -> Derivation:
    return Derivation(OR_E, left.conclusion, (major, left, right), discharge=labels)


def nn1(first: Derivation, second: Derivation, conclusion: Formula) -> Derivation:
    return Derivation(NN1, conclusion, (first, second))


def nn2(a: Formula) -> Derivation:
    return Derivation(NN2, Or(a, Neg(Neg(a))))


def nand_i(left: Derivation, right: Derivation) -> Derivation:
    if not (isinstance(left.conclusion, Neg) and isinstance(right.conclusion, Neg)):
        raise ValueError("NAndI needs two negation premises")
    return Derivation(NAND_I,
                      Neg(And(left.conclusion.body, right.conclusion.body)),
                      (left, right))


def nand_e_l(premise: Derivation) -> Derivation:
    c = premise.conclusion
    if not (isinstance(c, Neg) and isinstance(c.body, And)):
        raise ValueError("NAndE_L needs a negated conjunction premise")
    return Derivation(NAND_E_L, Neg(c.body.left), (premise,))


def nand_e_r(premise: Derivation) -> Derivation:
    c = premise.conclusion
    if not (isinstance(c, Neg) and isinstance(c.body, And)):
        raise ValueError("NAndE_R needs a negated conjunction premise")
    return Derivation(NAND_E_R, Neg(c.body.right), (premise,))


def nor_i_l(premise: Derivation, right: Formula) -> Derivation:
    if not isinstance(premise.conclusion, Neg):
        raise ValueError("NOrI_L needs a negation premise")
    return Derivation(NOR_I_L, Neg(Or(premise.conclusion.body, right)), (premise,))


def nor_i_r(premise: Derivation, left: Formula) -> Derivation:
    if not isinstance(premise.conclusion, Neg):
        raise ValueError("NOrI_R needs a negation premise")
    return Derivation(NOR_I_R, Neg(Or(left, premise.conclusion.body)), (premise,))


def nor_e(major: Derivation, left: Derivation, right: Derivation,
          labels: tuple[str, str]) -> Derivation:
    return Derivation(NOR_E, left.conclusion, (major, left, right), discharge=labels)


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
    if (discharge is not None) != (rule in _DISCHARGING):
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
    if rule is AND_I:
        if not (isinstance(c, And) and (c.left, c.right) == (concs[0], concs[1])):
            _fail(rule, "conclusion must conjoin the two premises in order")
    elif rule is AND_E_L or rule is AND_E_R:
        if not isinstance(concs[0], And):
            _fail(rule, "premise must be a conjunction")
        wanted = concs[0].left if rule is AND_E_L else concs[0].right
        if c != wanted:
            _fail(rule, f"conclusion must be {format_formula(wanted)}")
    elif rule is OR_I_L or rule is OR_I_R:
        if not isinstance(c, Or):
            _fail(rule, "conclusion must be a disjunction")
        own = c.left if rule is OR_I_L else c.right
        if own != concs[0]:
            _fail(rule, "premise must be the matching disjunct")
    elif rule is NN1:
        if not _is_double_negation(concs[1], concs[0]):
            _fail(rule, "second premise must be the double negation of the first")
        # conclusion arbitrary
    elif rule is NAND_I:
        if not (isinstance(concs[0], Neg) and isinstance(concs[1], Neg)):
            _fail(rule, "premises must be negations")
        if not (isinstance(c, Neg) and isinstance(c.body, And)
                and (c.body.left, c.body.right) == (concs[0].body, concs[1].body)):
            _fail(rule, "conclusion must negate the conjunction of "
                        "the premises' bodies")
    elif rule is NAND_E_L or rule is NAND_E_R:
        if not (isinstance(concs[0], Neg) and isinstance(concs[0].body, And)):
            _fail(rule, "premise must be a negated conjunction")
        conjunct = concs[0].body.left if rule is NAND_E_L else concs[0].body.right
        if not (isinstance(c, Neg) and c.body == conjunct):
            _fail(rule, f"conclusion must be {format_formula(Neg(conjunct))}")
    elif rule is NOR_I_L or rule is NOR_I_R:
        if not isinstance(concs[0], Neg):
            _fail(rule, "premise must be a negation")
        if not (isinstance(c, Neg) and isinstance(c.body, Or)):
            _fail(rule, "conclusion must be a negated disjunction")
        own = c.body.left if rule is NOR_I_L else c.body.right
        if own != concs[0].body:
            _fail(rule, "premise must negate the matching disjunct")
    else:  # OrE, NOrE
        if rule is OR_E:
            if not isinstance(concs[0], Or):
                _fail(rule, "major premise must be a disjunction")
            case_l: Formula = concs[0].left
            case_r: Formula = concs[0].right
        else:
            if not (isinstance(concs[0], Neg) and isinstance(concs[0].body, Or)):
                _fail(rule, "major premise must be a negated disjunction")
            case_l = Neg(concs[0].body.left)
            case_r = Neg(concs[0].body.right)
        if (concs[1], concs[2]) != (c, c):
            _fail(rule, "both case branches must conclude the node's conclusion")
        assert discharge is not None
        if len(discharge) != 2:
            _fail(rule, "discharge must name exactly two labels")
        label_l, label_r = discharge
        open_major, dis_major = results[0]
        open_l, dis_l = results[1]
        open_r, dis_r = results[2]
        for label in (label_l, label_r):
            if label in dis_major or label in dis_l or label in dis_r:
                _fail(rule, f"label {label!r} is already discharged deeper in the tree")
        _discharge(rule, open_l, label_l, case_l)
        _discharge(rule, open_r, label_r, case_r)
        if label_l in open_major or label_l in open_r:
            _fail(rule, f"discharged label {label_l!r} is still open outside its case branch")
        if label_r in open_major or label_r in open_l:
            _fail(rule, f"discharged label {label_r!r} is still open outside its case branch")
        open_map, discharged = _merge(rule, results)
        return open_map, discharged | {label_l, label_r}

    return _merge(rule, results)


def soundness_check(d: Derivation, cap: int | None = None) -> bool:
    """True iff ``d`` checks and its sequent is matrix-valid (``cap``
    defaults to ``matrix.DEFAULT_CAP``)."""
    _bind(globals(), "matrix", _MATRIX_NAMES)
    try:
        return is_consequence(derivation_sequent(d), DEFAULT_CAP if cap is None else cap).valid
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
    if rule in _DISCHARGING:
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
