"""Bit-parallel evaluation over blocks of interpretations.

Every semantics in this package encodes a value as two bits, membership
of 1 and membership of 0 in a truth set.  A *plane* is a Python int
holding one of those bits for each interpretation of a block, so one
integer operation evaluates a connective on the whole block at once
(bitslicing).  A :class:`Clauses` value is a reading as data: which
planes ``~`` complements, how falsity spreads and which plane is
designated.  The matrix and every option reading are points of that one
family, applied inline by the one loop, :meth:`Program.planes`.

Interpretations are numbered in scan order: each variable's digit
indexes a scan order of the four values, the last variable cycling
fastest, and interpretation ``k`` is bit ``k % block_size`` of block
``k // block_size``.  A refutation scan over more than ``PROBE_VARS``
variables first tries its first ``4 ** PROBE_VARS`` interpretations as one
narrow block; the witness and ``checked`` are those of the plain scan.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Sequence

from .formula import And, Atom, Formula, Neg, Or

#: A block holds 4 ** BLOCK_VARS interpretations (4 ** n when fewer
#: variables occur), which bounds the size of a plane whatever n is.
BLOCK_VARS = 8

#: Program.first_countermodel tries 4 ** PROBE_VARS interpretations first.
PROBE_VARS = 4

_ATOM, _NEG, _AND, _OR = range(4)
_OP_OF_TYPE = {Atom: _ATOM, Neg: _NEG, And: _AND, Or: _OR}
_CHILDREN_DONE = object()  # compile-stack mark: the node under it is next

Planes = tuple[int, int]


class Clauses(NamedTuple):
    """A semantics over planes, as data: one point of a clause family.

    ``codes[d]`` is the ``(has1, has0)`` pair of scan digit ``d``.  ``~A``
    has 1 where ``A`` has 0 and 0 where ``A`` has 1, complemented when
    ``neg1_flips`` and ``neg0_flips`` respectively.  ``A & B`` has 1 where
    both do, and 0 where either does if ``falsity_either``, else where both
    do; ``A | B`` dually.
    """

    codes: tuple[tuple[bool, bool], ...]
    neg1_flips: bool
    neg0_flips: bool
    falsity_either: bool
    designates_1: bool
    designation_flips: bool

    def designated(self, p1: int, p0: int, full: int) -> int:
        """Where ``(p1, p0)`` is designated: ``p1`` if ``designates_1``, else
        ``p0``, complemented within ``full`` when ``designation_flips``."""
        return (p1 if self.designates_1 else p0) ^ (full if self.designation_flips else 0)


class Program:
    """Formulas compiled into one hash-consed DAG.

    Nodes are keyed by ``(op, child, child)``, so a subformula repeated
    within or across the formulas is evaluated once per block.  The walk
    is iterative, so deep formulas never recurse.  ``names`` lists the
    variables in order of first occurrence, formula by formula.
    """

    def __init__(self, formulas: Sequence[Formula]) -> None:
        nodes: list[tuple[int, int, int]] = []
        variables: dict[str, int] = {}
        memo: dict = {}  # id of a formula object, or (op, child, child) key -> node
        for root in formulas:
            stack = [root]
            while stack:
                f = stack.pop()
                if f is _CHILDREN_DONE:
                    f = stack.pop()
                    op = _OP_OF_TYPE[type(f)]
                    key = (op, memo[id(f[1])], 0 if op == _NEG else memo[id(f[2])])
                elif id(f) in memo:
                    continue
                else:
                    op = _OP_OF_TYPE.get(type(f))
                    if op is None:
                        raise TypeError(f"not a formula: {f!r}")
                    if op != _ATOM:
                        # children first, left first (And(p, q) is (And, p, q)),
                        # so atoms are met left to right; then f again
                        stack += (f, _CHILDREN_DONE, *f[:0:-1])
                        continue
                    key = (_ATOM, variables.setdefault(f[1], len(variables)), 0)
                node = memo.setdefault(key, len(nodes))
                if node == len(nodes):
                    nodes.append(key)
                memo[id(f)] = node
        self.nodes = nodes
        self.roots = [memo[id(root)] for root in formulas]
        self.names = list(variables)
        self.block_size = 4 ** min(len(self.names), BLOCK_VARS)

    @functools.cached_property
    def _release(self) -> list[list[int]]:
        """The nodes whose plane each node reads last, dropped after it in
        blocks wider than a probe, so the live planes stay few however large
        the formulas are.  A root's plane is kept."""
        last = {}  # node -> the last node that reads its plane, in one pass
        for i, (op, a, b) in enumerate(self.nodes):
            if op != _ATOM:
                last[a] = i
                if op != _NEG:
                    last[b] = i
        for root in self.roots:
            last.pop(root, None)
        release: list[list[int]] = [[] for _ in self.nodes]
        for node, reader in last.items():
            release[reader].append(node)
        return release

    def blocks(self, clauses: Clauses,
               cycling: int = BLOCK_VARS) -> Iterator[tuple[int, list[Planes]]]:
        """``(block number, planes of each formula)`` for every block of
        ``4 ** cycling`` interpretations (or all, if fewer), in scan order."""
        n = len(self.names)
        cycling = min(n, cycling)
        fixed = n - cycling
        full = (1 << 4 ** cycling) - 1
        atoms: list[Planes] = [(0, 0)] * fixed + [*_cycle_planes(clauses.codes, cycling)]
        for block in range(4 ** fixed):
            for i in range(fixed):
                has1, has0 = clauses.codes[(block >> 2 * (fixed - 1 - i)) & 3]
                atoms[i] = (full if has1 else 0, full if has0 else 0)
            yield block, self.planes(clauses, atoms, full)

    def planes(self, clauses: Clauses, atoms: Sequence[Planes], full: int) -> list[Planes]:
        """Planes of each formula, given the planes of each variable and
        the all-ones plane ``full``: the one evaluation loop."""
        neg1 = full if clauses.neg1_flips else 0
        neg0 = full if clauses.neg0_flips else 0
        either = clauses.falsity_either
        nodes = self.nodes
        release = self._release if full.bit_length() > 4 ** PROBE_VARS else [()] * len(nodes)
        p1: list = [0] * len(nodes)
        p0: list = [0] * len(nodes)
        for i, (op, a, b) in enumerate(nodes):
            if op == _ATOM:
                p1[i], p0[i] = atoms[a]
            elif op == _NEG:
                p1[i], p0[i] = p0[a] ^ neg1, p1[a] ^ neg0
            elif op == _AND:
                p1[i], p0[i] = p1[a] & p1[b], (p0[a] | p0[b] if either else p0[a] & p0[b])
            else:
                p1[i], p0[i] = p1[a] | p1[b], (p0[a] & p0[b] if either else p0[a] | p0[b])
            for done in release[i]:
                p1[done] = p0[done] = None
        return [(p1[r], p0[r]) for r in self.roots]

    def first_countermodel(self, clauses: Clauses) -> tuple[list[int] | None, int]:
        """Scan for the first interpretation that designates every formula
        but the last, which it does not designate.

        Returns that interpretation's scan digits, or ``None``, and
        ``checked``: its index + 1, or ``4 ** n`` when there is none.  A
        refutation stops in the block that holds it.
        """
        n = len(self.names)
        # The scan's first 4 ** PROBE_VARS interpretations (leading digits 0)
        # go first as one block, so an early countermodel does not pay for a
        # wide one: a 256-bit plane is four machine words, so its operations
        # cost about what one-word ones do.  A full block rescans them.
        for cycling in (PROBE_VARS, BLOCK_VARS) if n > PROBE_VARS else (BLOCK_VARS,):
            size = 4 ** min(n, cycling)
            full = (1 << size) - 1
            for block, planes in self.blocks(clauses, cycling):
                bad = full
                for p1, p0 in planes[:-1]:
                    bad &= clauses.designated(p1, p0, full)
                bad &= ~clauses.designated(*planes[-1], full)
                if bad:
                    index = block * size + (bad & -bad).bit_length() - 1
                    return self.digits(index), index + 1
                if cycling == PROBE_VARS:
                    break
        return None, 4 ** n

    def digits(self, index: int) -> list[int]:
        """Scan digit of each variable in interpretation ``index``."""
        n = len(self.names)
        return [(index >> 2 * (n - 1 - i)) & 3 for i in range(n)]


@functools.cache
def _cycle_planes(codes: tuple[tuple[bool, bool], ...], cycling: int) -> tuple[Planes, ...]:
    """Planes of the ``cycling`` variables of a block in which they cycle,
    slowest first: bit ``k`` of the plane of the variable ``rank`` places
    before the fastest one holds that bit of ``codes[(k >> 2 * rank) & 3]``.
    Built by shift-doubling on first use, once per scan order and width."""
    size = 4 ** cycling
    planes = []
    for rank in reversed(range(cycling)):
        run = 4 ** rank
        pair = [0, 0]
        for digit, code in enumerate(codes):
            for bit in (0, 1):
                if code[bit]:
                    pair[bit] |= ((1 << run) - 1) << digit * run
        width = 4 * run
        while width < size:
            pair = [plane | plane << width for plane in pair]
            width *= 2
        planes.append(tuple(pair))
    return tuple(planes)
