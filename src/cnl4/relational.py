"""Relational (truth-set) readings of the four matrix values.

A relational interpretation assigns each atom one of the four subsets of
{1, 0}: {1} (true only), {1, 0} (both), {} (neither), {0} (false only),
written t, b, n, f.  Four option readings translate the matrix semantics
into this style.  Each option is a bijection between matrix values and
truth sets together with membership clauses for the connectives and a
preserved property for consequence:

    option  1   i   0   j   negation clauses        and/or falsity  preserves
    O1      t   b   f   n   1: 0 absent, 0: 1 in    either / both   truth
    O2      t   n   f   b   1: 0 in, 0: 1 absent    either / both   non-falsity
    O3      b   t   n   f   1: 0 in, 0: 1 absent    both / either   truth
    O4      b   f   n   t   1: 0 absent, 0: 1 in    both / either   falsity

The truth clauses for & and | are classical in every option (1 is in the
value of a conjunction iff it is in both conjuncts, of a disjunction iff
it is in some disjunct); the options differ in how falsity propagates.
Under each option the clause-by-clause evaluation commutes with the
value translation, so all four describe the same consequence relation as
the matrix.  :func:`option_clauses` maps an option's choices onto the
fields of a :class:`~cnl4.engine.Clauses` value, the data the engine's
one loop applies; the matrix is O1's point of that family.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .engine import Clauses
from .formula import Formula, Sequent, TaggedTuple
from .matrix import (
    BITS,
    CANONICAL_ORDER,
    DEFAULT_CAP,
    WITNESS_ORDER,
    Value,
    Verdict,
    _CANONICAL_CLAUSES,
    compile_within_cap,
    connective_tables,
    evaluate_point,
    render_table_lines,
    scan_consequence,
)


class FdeValue(Enum):
    """Names for the four truth sets: true, both, neither, false."""

    T = "t"
    B = "b"
    N = "n"
    F = "f"

    __hash__ = object.__hash__  # by identity, in C: Enum's own runs Python code per lookup

    def __str__(self) -> str:
        return self.value


FDE_ORDER: tuple[FdeValue, ...] = (FdeValue.T, FdeValue.B, FdeValue.N, FdeValue.F)


class TruthSet(TaggedTuple):
    """A subset of {1, 0}, tracked as two membership flags: the tuple
    ``(TruthSet, has1, has0)``, so :func:`rel_eval` refuses a bare pair
    such as ``(True, False)``."""

    __slots__ = ()
    _fields = ("has1", "has0")
    has1 = property(itemgetter(1))
    has0 = property(itemgetter(2))

    def __new__(cls, has1: bool, has0: bool) -> TruthSet:
        return tuple.__new__(cls, (cls, has1, has0))

    def __str__(self) -> str:
        members = [m for m, present in (("1", self.has1), ("0", self.has0)) if present]
        return "{" + ",".join(members) + "}"


TRUTH_SETS: dict[FdeValue, TruthSet] = {
    FdeValue.T: TruthSet(True, False),
    FdeValue.B: TruthSet(True, True),
    FdeValue.N: TruthSet(False, False),
    FdeValue.F: TruthSet(False, True),
}


class NegTruthClause(Enum):
    """When is 1 in the value of ~A?"""

    ZERO_ABSENT = "0 not in V(A)"
    ZERO_PRESENT = "0 in V(A)"


class NegFalsityClause(Enum):
    """When is 0 in the value of ~A?"""

    ONE_PRESENT = "1 in V(A)"
    ONE_ABSENT = "1 not in V(A)"


class FalsityStyle(Enum):
    """How falsity propagates through & (dually through |)."""

    EITHER = "conjunction false when either conjunct is"
    BOTH = "conjunction false when both conjuncts are"


class Preservation(Enum):
    """Property preserved from premises to conclusion."""

    TRUTH = "truth"
    NON_FALSITY = "non-falsity"
    FALSITY = "falsity"


class OptionReading(NamedTuple):
    id: str
    value_map: Mapping[Value, FdeValue]
    neg_truth: NegTruthClause
    neg_falsity: NegFalsityClause
    falsity_style: FalsityStyle
    preservation: Preservation


OPTIONS: dict[str, OptionReading] = {
    "O1": OptionReading(
        id="O1",
        value_map={Value.V1: FdeValue.T, Value.VI: FdeValue.B,
                   Value.VJ: FdeValue.N, Value.V0: FdeValue.F},
        neg_truth=NegTruthClause.ZERO_ABSENT,
        neg_falsity=NegFalsityClause.ONE_PRESENT,
        falsity_style=FalsityStyle.EITHER,
        preservation=Preservation.TRUTH,
    ),
    "O2": OptionReading(
        id="O2",
        value_map={Value.V1: FdeValue.T, Value.VI: FdeValue.N,
                   Value.VJ: FdeValue.B, Value.V0: FdeValue.F},
        neg_truth=NegTruthClause.ZERO_PRESENT,
        neg_falsity=NegFalsityClause.ONE_ABSENT,
        falsity_style=FalsityStyle.EITHER,
        preservation=Preservation.NON_FALSITY,
    ),
    "O3": OptionReading(
        id="O3",
        value_map={Value.V1: FdeValue.B, Value.VI: FdeValue.T,
                   Value.VJ: FdeValue.F, Value.V0: FdeValue.N},
        neg_truth=NegTruthClause.ZERO_PRESENT,
        neg_falsity=NegFalsityClause.ONE_ABSENT,
        falsity_style=FalsityStyle.BOTH,
        preservation=Preservation.TRUTH,
    ),
    "O4": OptionReading(
        id="O4",
        value_map={Value.V1: FdeValue.B, Value.VI: FdeValue.F,
                   Value.VJ: FdeValue.T, Value.V0: FdeValue.N},
        neg_truth=NegTruthClause.ZERO_ABSENT,
        neg_falsity=NegFalsityClause.ONE_PRESENT,
        falsity_style=FalsityStyle.BOTH,
        preservation=Preservation.FALSITY,
    ),
}


def get_option(option_id: str) -> OptionReading:
    try:
        return OPTIONS[option_id]
    except KeyError:
        raise ValueError(f"unknown option {option_id!r}; expected one of "
                         f"{', '.join(OPTIONS)}") from None


def correspond(option: OptionReading, v: Value) -> TruthSet:
    """The truth set assigned to matrix value ``v`` under ``option``."""
    return TRUTH_SETS[option.value_map[v]]


RelInterpretation = Mapping[str, TruthSet]


def rel_eval(option: OptionReading, f: Formula, assignment: RelInterpretation) -> TruthSet:
    """Evaluate ``f`` clause by clause over truth sets.

    Raises :class:`~cnl4.matrix.UnboundVariableError` if an atom of ``f``
    has no truth set.
    """
    return evaluate_point(f, assignment, option_clauses(option, CANONICAL_ORDER),
                          [correspond(option, v) for v in CANONICAL_ORDER])


def rel_designated(option: OptionReading, s: TruthSet) -> bool:
    """Does ``s`` have the property the option's consequence preserves?"""
    return bool(option_clauses(option, CANONICAL_ORDER).designated(s.has1, s.has0, 1))


def option_clauses(option: OptionReading, order: Sequence[Value]) -> Clauses:
    """The option's clauses over planes, scanning the images of ``order``.

    :func:`rel_eval`, :func:`rel_designated` and :func:`option_tables`
    apply these clauses.
    """
    return Clauses(
        codes=tuple((s.has1, s.has0) for s in (correspond(option, v) for v in order)),
        neg1_flips=option.neg_truth is NegTruthClause.ZERO_ABSENT,
        neg0_flips=option.neg_falsity is NegFalsityClause.ONE_ABSENT,
        falsity_either=option.falsity_style is FalsityStyle.EITHER,
        designates_1=option.preservation is Preservation.TRUTH,
        designation_flips=option.preservation is Preservation.NON_FALSITY,
    )


def rel_consequence(option: OptionReading, s: Sequent,
                    cap: int = DEFAULT_CAP) -> Verdict:
    """Consequence over relational interpretations, per the option's clauses.

    Computed entirely on the truth-set side; agreement with the matrix
    verdict is a theorem, not an implementation shortcut.  Truth sets are
    scanned in the image of :data:`WITNESS_ORDER`, so the first relational
    countermodel is the translation of the matrix one, and ``checked`` is
    its index + 1, or ``4 ** n`` when there is none.
    """
    return scan_consequence(s, cap, option_clauses(option, WITNESS_ORDER),
                            [correspond(option, v) for v in WITNESS_ORDER])


class Mismatch(NamedTuple):
    interpretation: dict[str, Value]
    via_map: TruthSet
    via_clauses: TruthSet


class EquivalenceReport(NamedTuple):
    """Comparison of the two evaluation routes for one formula.

    ``via_map`` translates the matrix value of the whole formula;
    ``via_clauses`` translates only the atoms and evaluates relationally.
    """

    option_id: str
    formula: Formula
    checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_option_equivalence(option: OptionReading, f: Formula,
                             cap: int = DEFAULT_CAP) -> EquivalenceReport:
    """Verify that translation commutes with evaluation for ``f``.

    Both routes run a block of interpretations (in ``CANONICAL_ORDER``) at
    a time: the matrix value through :func:`matrix_clauses`, then the
    option's map, against the option's own clauses on translated atoms.
    """
    program = compile_within_cap([f], cap)
    image = {BITS[v]: correspond(option, v) for v in CANONICAL_ORDER}
    mismatches = []
    for (block, [(m1, m0)]), (_, [(c1, c0)]) in zip(
            program.blocks(_CANONICAL_CLAUSES),
            program.blocks(option_clauses(option, CANONICAL_ORDER))):
        full = (1 << program.block_size) - 1
        v1 = v0 = 0
        for (has1, has0), target in image.items():
            where = (m1 if has1 else full ^ m1) & (m0 if has0 else full ^ m0)
            v1 |= where if target.has1 else 0
            v0 |= where if target.has0 else 0
        differ = (v1 ^ c1) | (v0 ^ c0)
        while differ:
            low = differ & -differ
            differ ^= low
            bit = low.bit_length() - 1
            digits = program.digits(block * program.block_size + bit)
            mismatches.append(Mismatch(
                {name: CANONICAL_ORDER[d] for name, d in zip(program.names, digits)},
                TruthSet(bool(v1 >> bit & 1), bool(v0 >> bit & 1)),
                TruthSet(bool(c1 >> bit & 1), bool(c0 >> bit & 1))))
    return EquivalenceReport(option.id, f, 4 ** len(program.names), tuple(mismatches))


class OptionTables(NamedTuple):
    neg: dict[FdeValue, FdeValue]
    conj: dict[tuple[FdeValue, FdeValue], FdeValue]
    disj: dict[tuple[FdeValue, FdeValue], FdeValue]


def option_tables(option: OptionReading) -> OptionTables:
    """Connective tables over t/b/n/f: the option's clauses on single bits."""
    return OptionTables(*connective_tables(option_clauses(option, CANONICAL_ORDER),
                                           [option.value_map[v] for v in CANONICAL_ORDER]))


def option_table_lines(option: OptionReading) -> list[str]:
    """The option's 36 table entries in golden-file format."""
    tables = option_tables(option)
    return render_table_lines(tables.neg, tables.conj, tables.disj, FDE_ORDER)
