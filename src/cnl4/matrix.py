"""Four-valued matrix semantics.

The carrier is {1, i, j, 0} ordered as the diamond lattice 0 < i, j < 1
with i and j incomparable.  Conjunction is lattice meet, disjunction is
lattice join, and negation is the four-cycle 1 -> i -> 0 -> j -> 1.  The
designated values are 1 and i; consequence is preservation of
designation under every interpretation.

The matrix is defined once, as O1's point of the truth-set clause family
(:func:`matrix_clauses`, a :class:`~cnl4.engine.Clauses` value); the
tables :data:`NEG`, :data:`AND` and :data:`OR` are read off the one
evaluation loop run on that clause set by :func:`connective_tables`.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, product
from typing import Iterator, Mapping, NamedTuple, Sequence

from .engine import Clauses, Program
from .formula import Formula, Sequent, parse

DEFAULT_CAP = 10


class Value(Enum):
    V1 = "1"
    VI = "i"
    VJ = "j"
    V0 = "0"

    __hash__ = object.__hash__  # by identity, in C: Enum's own runs Python code per lookup

    def __str__(self) -> str:
        return self.value


V1, VI, VJ, V0 = Value.V1, Value.VI, Value.VJ, Value.V0

#: Row/column order used by truth tables and table renderings.
CANONICAL_ORDER: tuple[Value, ...] = (V1, VI, VJ, V0)

#: Scan order for countermodel search: the designated values first, then
#: their images under double negation (~~1 = 0, ~~i = j).  Fixing this
#: order makes the first reported countermodel stable across runs.
WITNESS_ORDER: tuple[Value, ...] = (V1, VI, V0, VJ)

DESIGNATED: frozenset[Value] = frozenset({V1, VI})


def neg(a: Value) -> Value:
    return NEG[a]


def conj(a: Value, b: Value) -> Value:
    return AND[(a, b)]


def disj(a: Value, b: Value) -> Value:
    return OR[(a, b)]


def is_designated(a: Value) -> bool:
    return a in DESIGNATED


class UnboundVariableError(Exception):
    """An interpretation is missing a value for an atom."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no value assigned to atom {name!r}")
        self.name = name


class CapExceededError(Exception):
    """A sequent or formula has more variables than the configured cap."""

    def __init__(self, count: int, cap: int) -> None:
        super().__init__(f"{count} variables exceed the cap of {cap}")
        self.count = count
        self.cap = cap


Interpretation = Mapping[str, Value]


def interpretations(names: Sequence[str]) -> Iterator[dict[str, Value]]:
    """All assignments to ``names`` in ``CANONICAL_ORDER``, the last
    variable cycling fastest."""
    for values in product(CANONICAL_ORDER, repeat=len(names)):
        yield dict(zip(names, values))


#: Each value as the truth set O1 gives it: (1 in the set, 0 in the set).
BITS: dict[Value, tuple[bool, bool]] = {
    V1: (True, False), VI: (True, True), VJ: (False, False), V0: (False, True),
}


def matrix_clauses(order: Sequence[Value]) -> Clauses:
    """The matrix as O1's truth-set clauses over planes, scanning ``order``.

    Negation puts 1 in when 0 is absent and 0 in when 1 is present;
    conjunction is true when both conjuncts are and false when either is;
    disjunction dually; designated means 1 is in the set.
    """
    return Clauses(tuple(BITS[v] for v in order), neg1_flips=True, neg0_flips=False,
                   falsity_either=True, designates_1=True, designation_flips=False)


_TABLE_PROGRAM = Program([parse(text) for text in ("~x", "x & y", "x | y")])


def connective_tables(clauses: Clauses, values: Sequence) -> tuple[dict, dict, dict]:
    """The ~, & and | tables of ``clauses``, read off the one block of 16
    interpretations of ``~x``, ``x & y`` and ``x | y``, in which bit
    ``4 * a + b`` gives x digit ``a`` and y digit ``b``; code
    ``clauses.codes[k]`` names ``values[k]``."""
    [(_, planes)] = _TABLE_PROGRAM.blocks(clauses)
    named = dict(zip(clauses.codes, values))
    neg, conj, disj = ([named[bool(p1 >> k & 1), bool(p0 >> k & 1)] for k in range(16)]
                       for p1, p0 in planes)
    pairs = list(product(values, repeat=2))
    return dict(zip(values, neg[::4])), dict(zip(pairs, conj)), dict(zip(pairs, disj))


# Built once: evaluate's, truth_table's and the tables', and is_consequence's.
_CANONICAL_CLAUSES = matrix_clauses(CANONICAL_ORDER)
_WITNESS_CLAUSES = matrix_clauses(WITNESS_ORDER)

#: The connective tables, keyed in canonical order: negation is the
#: four-cycle, conjunction and disjunction are meet and join.
NEG, AND, OR = connective_tables(_CANONICAL_CLAUSES, CANONICAL_ORDER)


def evaluate(f: Formula, interpretation: Interpretation) -> Value:
    """Value of ``f`` under ``interpretation``.

    Raises :class:`UnboundVariableError` if an atom of ``f`` has no value,
    and :class:`TypeError` if it has one that is not a :class:`Value`.
    """
    return evaluate_point(f, interpretation, _CANONICAL_CLAUSES, CANONICAL_ORDER)


def evaluate_point(f: Formula, interpretation: Mapping, clauses: Clauses, values: Sequence):
    """Value of ``f`` under ``clauses`` at one interpretation, as a block one
    interpretation wide; scan digit ``d`` names ``values[d]``.

    Raises :class:`UnboundVariableError` naming the first atom of ``f`` that
    has no value, and :class:`TypeError` for a value not in ``values``.
    """
    program = Program([f])
    atoms = []
    for name in program.names:
        try:
            value = interpretation[name]
        except KeyError:
            raise UnboundVariableError(name) from None
        if value not in values:
            raise TypeError(f"atom {name!r} has value {value!r}, not one of "
                            f"{', '.join(map(str, values))}")
        atoms.append(clauses.codes[values.index(value)])
    [(p1, p0)] = program.planes(clauses, atoms, 1)
    return values[clauses.codes.index((bool(p1), bool(p0)))]


def compile_within_cap(formulas: Sequence[Formula], cap: int) -> Program:
    """Compile ``formulas`` for block evaluation.

    Raises :class:`CapExceededError` when more than ``cap`` variables occur.
    """
    program = Program(formulas)
    if len(program.names) > cap:
        raise CapExceededError(len(program.names), cap)
    return program


_VALUE_OF_BITS = {(str(int(has1)), str(int(has0))): v for v, (has1, has0) in BITS.items()}


def truth_rows(f: Formula, cap: int = DEFAULT_CAP) -> Iterator[tuple[dict[str, Value], Value]]:
    """:func:`truth_table`'s rows as an iterator that decodes a block of at
    most ``4 ** engine.BLOCK_VARS`` values at a time.  ``f`` is compiled at
    the call, so :class:`CapExceededError` is raised here, before any row."""
    return program_rows(compile_within_cap([f], cap))


def program_rows(program: Program) -> Iterator[tuple[dict[str, Value], Value]]:
    """:func:`truth_rows` of the one formula ``program`` compiles."""
    width = program.block_size
    # bit k of a plane is character k of the reversed binary string
    blocks = (map(_VALUE_OF_BITS.get, zip(f"{p1:0{width}b}"[::-1], f"{p0:0{width}b}"[::-1]))
              for _, [(p1, p0)] in program.blocks(_CANONICAL_CLAUSES))
    return zip(interpretations(program.names), chain.from_iterable(blocks))


def truth_table(f: Formula, cap: int = DEFAULT_CAP) -> list[tuple[dict[str, Value], Value]]:
    """All rows ``(interpretation, value)`` for ``f``.

    Variables appear in first-occurrence order and rows cycle through
    ``CANONICAL_ORDER``, rightmost variable fastest.  The list holds all
    ``4 ** n`` rows; :func:`truth_rows` streams them.
    """
    return list(truth_rows(f, cap))


class Verdict(NamedTuple):
    """Outcome of a consequence check.

    ``witness`` is the first countermodel in scan order, each variable's
    value named by the semantics (matrix values, or truth sets for an
    option reading), or ``None`` when the sequent is valid; ``checked``
    is the index of that countermodel + 1, or ``4 ** n`` for a valid
    sequent over ``n`` variables.
    """

    valid: bool
    witness: dict | None
    checked: int


def scan_consequence(s: Sequent, cap: int, clauses: Clauses, values: Sequence) -> Verdict:
    """Scan the interpretations of ``s`` under ``clauses`` for the first
    countermodel, a block at a time; scan digit ``d`` names ``values[d]``.

    Raises :class:`CapExceededError` when more than ``cap`` variables occur.
    """
    program = compile_within_cap([*s.premises, s.conclusion], cap)
    digits, checked = program.first_countermodel(clauses)
    if digits is None:
        return Verdict(valid=True, witness=None, checked=checked)
    witness = {name: values[d] for name, d in zip(program.names, digits)}
    return Verdict(valid=False, witness=witness, checked=checked)


def is_consequence(s: Sequent, cap: int = DEFAULT_CAP) -> Verdict:
    """Decide designation-preservation for ``s`` over all ``4 ** n``
    interpretations, scanned in :data:`WITNESS_ORDER` a block at a time.

    ``checked`` is the index of the first countermodel + 1, or ``4 ** n``
    when there is none; the scan stops in the block holding it.
    """
    return scan_consequence(s, cap, _WITNESS_CLAUSES, WITNESS_ORDER)


def countermodel(s: Sequent, cap: int = DEFAULT_CAP) -> dict[str, Value] | None:
    """First interpretation designating all premises but not the conclusion."""
    return is_consequence(s, cap).witness


def render_table_lines(neg_table: Mapping, and_table: Mapping, or_table: Mapping,
                       order: Sequence) -> list[str]:
    """Render the three connective tables as ``op lhs [rhs] result`` lines.

    Unary rows come first, then the two binary tables row-major in
    ``order``.  Shared by the matrix and the option-reading tables, which
    differ only in their value sets.
    """
    lines = [f"~ {a} {neg_table[a]}" for a in order]
    for op, table in (("&", and_table), ("|", or_table)):
        for a in order:
            for b in order:
                lines.append(f"{op} {a} {b} {table[(a, b)]}")
    return lines


def matrix_table_lines() -> list[str]:
    """The 36 connective-table entries in golden-file format."""
    return render_table_lines(NEG, AND, OR, CANONICAL_ORDER)
