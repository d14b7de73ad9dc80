"""Functional completeness machinery.

Three ingredients:

* defining terms for the indicator functions delta_a (value 1 at a, else
  0), the constant functions C_a, and a derived Boolean-style negation
  macro, each evaluated pointwise and compared against its defining
  equation;
* the closure of {identity, ~} under composition, pointwise & / | and
  post-negation, which reaches all 256 unary functions on the carrier
  and keeps a smallest-found witness term per function.  It runs on
  table indices (ints 0..255 of two-bit truth-set codes), measures each
  candidate's witness from its parts, and builds terms only for the
  smallest candidates of each new table;
* the two-condition criterion for functional completeness of a finite
  matrix with at least three elements: all unary functions definable,
  plus one surjective essentially binary definable function.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

from .engine import Program
from .formula import And, Atom, Formula, Neg, Or, format_formula, parse, substitute
from .matrix import AND, BITS, CANONICAL_ORDER, NEG, OR, Value, program_rows

_INDEX = {v: k for k, v in enumerate(CANONICAL_ORDER)}


class ReservedVariableError(Exception):
    """A term mentions atoms outside its reserved variable set."""


class UnaryTable(NamedTuple):
    """A unary function on the carrier, tabulated in canonical order."""

    outputs: tuple[Value, Value, Value, Value]

    def apply(self, v: Value) -> Value:
        return self.outputs[_INDEX[v]]

    def __str__(self) -> str:
        return ",".join(f"{a}:{self.apply(a)}" for a in CANONICAL_ORDER)


class BinaryTable(NamedTuple):
    """A binary function on the carrier, tabulated row-major."""

    outputs: tuple[Value, ...]  # 16 entries, left argument major

    def apply(self, a: Value, b: Value) -> Value:
        return self.outputs[_INDEX[a] * 4 + _INDEX[b]]


def unary_table(fn) -> UnaryTable:
    return UnaryTable(tuple(fn(v) for v in CANONICAL_ORDER))


def binary_table(fn) -> BinaryTable:
    return BinaryTable(tuple(fn(a, b) for a in CANONICAL_ORDER for b in CANONICAL_ORDER))


IDENTITY_TABLE = unary_table(lambda v: v)
NEG_TABLE = unary_table(lambda v: NEG[v])
AND_TABLE = binary_table(lambda a, b: AND[(a, b)])
OR_TABLE = binary_table(lambda a, b: OR[(a, b)])


# --------------------------------------------------------------------------
# Defining terms

X = Atom("x")

#: The negation macro: maps 1 and i to 0, and j and 0 to 1 (the table is
#: derived by evaluation, not stipulated).  The subterm x & ~~~x does the
#: work: it collapses j and 0 to 0 while sending 1 and i elsewhere.
BOOLEAN_NEG = parse(
    "~~~(~~((x & ~~~x) & ~~~(x & ~~~x)) & ((x & ~~~x) | ~~~(x & ~~~x)))"
)


def boolean_neg(arg: Formula) -> Formula:
    """Expand the negation macro structurally at ``arg``."""
    return substitute(BOOLEAN_NEG, "x", arg)


#: Terms defining the indicator functions delta_a, the constants C_a,
#: and the negation macro itself.  The delta terms use the macro, fully
#: expanded, so evaluating them exercises the macro at depth.
DEFINING_TERMS: dict[str, Formula] = {
    "delta_1": boolean_neg(parse("~~x | ~~~x")),
    "delta_i": boolean_neg(Or(parse("~~x"), boolean_neg(parse("~~~x")))),
    "delta_j": boolean_neg(Or(parse("~~~x"), boolean_neg(boolean_neg(X)))),
    "delta_0": boolean_neg(boolean_neg(parse("~~x & ~~~x"))),
    "C_1": parse("x | ~~x"),
    "C_i": parse("~(x | ~~x)"),
    "C_j": parse("~(x & ~~x)"),
    "C_0": parse("x & ~~x"),
    "bool_neg": BOOLEAN_NEG,
}

def fn_of_unary_term(t: Formula) -> UnaryTable:
    """Tabulate a term in the single reserved variable ``x``."""
    program = Program([t])  # visits shared subterms once, unlike formula.variables
    extra = set(program.names) - {"x"}
    if extra:
        raise ReservedVariableError(
            f"unary terms may mention only 'x'; found {', '.join(sorted(extra))}")
    return UnaryTable(tuple(value for _, value in program_rows(program)))


def indicator_table(a: Value) -> UnaryTable:
    """delta_a as a table: 1 at a, 0 elsewhere."""
    return unary_table(lambda b: Value.V1 if b == a else Value.V0)


def constant_table(a: Value) -> UnaryTable:
    return unary_table(lambda _: a)


class PointCheck(NamedTuple):
    term_name: str
    argument: Value
    expected: Value
    actual: Value

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def delta_c_point_checks(tables: Mapping[str, UnaryTable]) -> list[PointCheck]:
    """Compare delta/C tables against their defining equations, pointwise."""
    expected = {**{f"delta_{a}": indicator_table(a) for a in CANONICAL_ORDER},
                **{f"C_{a}": constant_table(a) for a in CANONICAL_ORDER}}
    return [PointCheck(name, b, table.apply(b), tables[name].apply(b))
            for name, table in expected.items() for b in CANONICAL_ORDER]


class DeltaCReport(NamedTuple):
    checks: tuple[PointCheck, ...]
    bool_neg_table: UnaryTable

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[PointCheck]:
        return [c for c in self.checks if not c.ok]


def verify_delta_c() -> DeltaCReport:
    """Evaluate all delta/C terms and check their 32 defining points.

    The table of the negation macro is included in the report for
    inspection; it has no stipulated reference values.
    """
    tables = {name: fn_of_unary_term(term) for name, term in DEFINING_TERMS.items()}
    return DeltaCReport(tuple(delta_c_point_checks(tables)), tables["bool_neg"])


# --------------------------------------------------------------------------
# Unary clone closure in table-index space
# A table is an int 0..255 whose digit at bits 2c, 2c+1 is the BITS code
# (has1 high, has0 low) of the output at the argument coded c, so & and |
# are the truth-set clauses.  Each operation also acts lane-wise on
# tables packed one per byte, given ``lanes``, the repunit 0x0101...01.

_HAS0, _HAS1 = 0x55, 0xAA  # the low and the high bit of every digit
_CODE = {v: 2 * has1 + has0 for v, (has1, has0) in BITS.items()}
_VALUE_OF_CODE = {c: v for v, c in _CODE.items()}
_IDENTITY = sum(c << 2 * c for c in range(4))


def _neg(t: int, lanes: int = 1) -> int:
    return ((t & _HAS0 * lanes) ^ _HAS0 * lanes) << 1 | (t >> 1) & _HAS0 * lanes


def _meet(a: int, b: int, lanes: int = 1) -> int:
    return a & b & _HAS1 * lanes | (a | b) & _HAS0 * lanes


def _join(a: int, b: int, lanes: int = 1) -> int:
    return (a | b) & _HAS1 * lanes | a & b & _HAS0 * lanes


def _compose(f: int, g: int, lanes: int = 1) -> int:
    """f(g): each digit of g becomes f's digit at that code."""
    low = _HAS0 * lanes
    g0, g1 = g & low, (g >> 1) & low
    return ((g1 ^ low) & (g0 ^ low)) * (f & 3) | ((g1 ^ low) & g0) * (f >> 2 & 3) \
        | (g1 & (g0 ^ low)) * (f >> 4 & 3) | (g1 & g0) * (f >> 6)


def _precompose(g: int, f: int, lanes: int = 1) -> int:
    """g(f): digit c is g's digit at f's digit c."""
    return sum((g >> 2 * (f >> 2 * c & 3) & 3 * lanes) << 2 * c for c in range(4))


def _unary_table(t: int) -> UnaryTable:
    return UnaryTable(tuple(_VALUE_OF_CODE[t >> 2 * _CODE[v] & 3] for v in CANONICAL_ORDER))


class ClosureResult(NamedTuple):
    """Tables reached from {x, ~x}, each with its smallest-found witness."""

    witnesses: dict[UnaryTable, Formula]
    rounds: int

    @property
    def size(self) -> int:
        return len(self.witnesses)


def unary_clone_closure() -> ClosureResult:
    """Close {identity, ~} under composition, pointwise & / |, and ~.

    Breadth-first by rounds: each round pairs every table added in the
    previous round with every known table, both ways round.  New tables
    adopt the smallest candidate witness (term size, then the printed
    term) and enter the map in that order, so the map is deterministic.
    """
    terms, _, rounds = _index_closure()
    return ClosureResult({_unary_table(t): term for t, term in terms.items()}, rounds)


def _index_closure() -> tuple[dict[int, Formula], dict[int, tuple[int, int]], int]:
    """Witnesses by table index in insertion order, their (size, number
    of x), and the round count.  A candidate is measured from its parts;
    its term is built only if it is among the smallest for a new table."""
    nx = _neg(_IDENTITY)
    terms: dict[int, Formula] = {_IDENTITY: X, nx: Neg(X)}
    measures = {_IDENTITY: (1, 1), nx: (2, 1)}
    frontier, rounds = list(terms), 0
    while True:
        best: dict[int, list] = {}  # new table -> [least size, its candidates]

        def offer(t: int, op: str, a: int, b: int) -> None:
            s = _measure(op, measures[a], measures[b])[0]
            if t not in best or s < best[t][0]:
                best[t] = [s, {(op, a, b)}]
            elif s == best[t][0]:
                best[t][1].add((op, a, b))

        known = bytes(terms)
        lanes = int.from_bytes(b"\1" * len(known), "little")
        packed = int.from_bytes(known, "little")
        for f in frontier:
            if _neg(f) not in terms:
                offer(_neg(f), "~", f, f)
            # one operation of f with every known g; a shape's flag puts f second
            for row, shapes in ((_meet(f * lanes, packed, lanes), (("&", 0), ("&", 1))),
                                (_join(f * lanes, packed, lanes), (("|", 0), ("|", 1))),
                                (_compose(f, packed, lanes), (("o", 0),)),
                                (_precompose(packed, f, lanes), (("o", 1),))):
                row = row.to_bytes(len(known), "little")
                for t in set(row).difference(terms):
                    j = row.find(t)
                    while j >= 0:
                        for op, f_second in shapes:
                            offer(t, op, *((known[j], f) if f_second else (f, known[j])))
                        j = row.find(t, j + 1)
        if not best:
            return terms, measures, rounds
        rounds += 1
        chosen = {}  # new table -> (size, printed term, term)
        for t, (s, candidates) in best.items():
            printed = {}  # equal sizes are ordered by the printed term
            for op, a, b in candidates:
                term = _BUILD[op](terms[a], terms[b])
                printed[format_formula(term)] = term, _measure(op, measures[a], measures[b])
            text = min(printed)
            chosen[t] = s, text, printed[text][0]
            measures[t] = printed[text][1]
        frontier = sorted(chosen, key=lambda t: chosen[t][:2])
        terms.update((t, chosen[t][2]) for t in frontier)


# the term of a candidate (op, a, b), from the terms of a and b
_BUILD = {"~": lambda a, _: Neg(a), "o": lambda a, b: substitute(a, "x", b), "&": And, "|": Or}


def _measure(op: str, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(size, number of x) of a candidate's term, from those of a and b."""
    (size_a, xs_a), (size_b, xs_b) = a, b
    if op == "~":
        return size_a + 1, xs_a
    if op == "o":  # every x of the outer term becomes the inner term
        return size_a + xs_a * (size_b - 1), xs_a * xs_b
    return size_a + size_b + 1, xs_a + xs_b


@functools.cache
def _closure() -> ClosureResult:
    return unary_clone_closure()


def find_term_for_unary(target: UnaryTable) -> Formula:
    """The closure's witness term for ``target`` (it has every table)."""
    return _closure().witnesses[target]


# --------------------------------------------------------------------------
# Essential binarity and the completeness criterion

def depends_on_left(f: BinaryTable) -> bool:
    return any(f.apply(a1, b) != f.apply(a2, b)
               for b in CANONICAL_ORDER
               for a1 in CANONICAL_ORDER for a2 in CANONICAL_ORDER)


def depends_on_right(f: BinaryTable) -> bool:
    return depends_on_left(binary_table(lambda a, b: f.apply(b, a)))


def is_essentially_binary(f: BinaryTable) -> bool:
    """True iff ``f`` depends on both coordinates.

    Dependence on both coordinates is equivalent to ``f`` not being of
    the form g(x) or g(y) for any unary g: if f ignores a coordinate,
    its section along the other one is such a g, and conversely.
    """
    return depends_on_left(f) and depends_on_right(f)


def is_surjective(f: BinaryTable) -> bool:
    return set(f.outputs) == set(CANONICAL_ORDER)


class SlupeckiReport(NamedTuple):
    """The two-condition completeness criterion, instantiated with &."""

    closure_size: int
    unary_complete: bool       # condition (1): all 256 unary functions
    binary_witness: str
    surjective: bool           # condition (2a)
    essentially_binary: bool   # condition (2b)

    @property
    def functionally_complete(self) -> bool:
        return self.unary_complete and self.surjective and self.essentially_binary


def slupecki_check() -> SlupeckiReport:
    closure = _closure()
    return SlupeckiReport(
        closure_size=closure.size,
        unary_complete=closure.size == 256,
        binary_witness="&",
        surjective=is_surjective(AND_TABLE),
        essentially_binary=is_essentially_binary(AND_TABLE),
    )
