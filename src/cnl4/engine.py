"""Bit-parallel evaluation over blocks of interpretations.

Every semantics in this package encodes a value as two bits, membership
of 1 and membership of 0 in a truth set.  A *plane* is a Python int
holding one of those bits for each interpretation of a block, so one
integer operation evaluates a connective on the whole block at once
(bitslicing).  A :class:`Clauses` value says how the connectives act on
planes and which planes are designated; the matrix and every option
reading are different clause sets over the same two bits.

Interpretations are numbered in scan order: each variable's digit
indexes a scan order of the four values, the last variable cycling
fastest, and interpretation ``k`` is bit ``k % block_size`` of block
``k // block_size``.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, NamedTuple, Sequence

from .formula import And, Atom, Formula, Neg, Or

#: A block holds 4 ** BLOCK_VARS interpretations (4 ** n when fewer
#: variables occur), which bounds the size of a plane whatever n is.
BLOCK_VARS = 8

_ATOM, _NEG, _AND, _OR = range(4)

Planes = tuple[int, int]


class Clauses(NamedTuple):
    """A semantics over planes.

    ``codes[d]`` is the ``(has1, has0)`` pair of scan digit ``d``.  The
    connectives map the ``(has1, has0)`` planes of their arguments to
    those of the result; ``full`` is the block's all-ones plane, for
    complements.  ``designated`` gives the plane of interpretations under
    which a value is designated.
    """

    codes: tuple[tuple[bool, bool], ...]
    neg: Callable[[int, int, int], Planes]
    conj: Callable[[int, int, int, int], Planes]
    disj: Callable[[int, int, int, int], Planes]
    designated: Callable[[int, int, int], int]


class Program:
    """Formulas compiled into one hash-consed DAG.

    Nodes are keyed by ``(op, child, child)``, so a subformula repeated
    within or across the formulas is evaluated once per block.  The walk
    is iterative, so deep formulas never recurse.  ``names`` lists the
    variables in order of first occurrence, formula by formula.
    """

    def __init__(self, formulas: Sequence[Formula]) -> None:
        index: dict[tuple[int, int, int], int] = {}
        nodes: list[tuple[int, int, int]] = []
        variables: dict[str, int] = {}
        node_of: dict[int, int] = {}  # id of a formula object -> its node
        for root in formulas:
            stack = [root]
            while stack:
                f = stack[-1]
                if id(f) in node_of:
                    stack.pop()
                    continue
                # a node stays on the stack until its children have
                # nodes, left child first, so atoms are met left to right
                if isinstance(f, Atom):
                    key = (_ATOM, variables.setdefault(f.name, len(variables)), 0)
                elif isinstance(f, Neg):
                    body = node_of.get(id(f.body))
                    if body is None:
                        stack.append(f.body)
                        continue
                    key = (_NEG, body, 0)
                elif isinstance(f, (And, Or)):
                    left = node_of.get(id(f.left))
                    if left is None:
                        stack.append(f.left)
                        continue
                    right = node_of.get(id(f.right))
                    if right is None:
                        stack.append(f.right)
                        continue
                    key = (_AND if isinstance(f, And) else _OR, left, right)
                else:
                    raise TypeError(f"not a formula: {f!r}")
                stack.pop()
                node = index.setdefault(key, len(nodes))
                if node == len(nodes):
                    nodes.append(key)
                node_of[id(f)] = node
        self.nodes = nodes
        self.roots = [node_of[id(root)] for root in formulas]
        self.names = list(variables)
        # drop each inner plane after its last reader, so the live planes
        # stay few however large the formulas are
        last_reader = {}
        for i, (op, a, b) in enumerate(nodes):
            if op != _ATOM:
                last_reader[a] = i
            if op in (_AND, _OR):
                last_reader[b] = i
        for root in self.roots:
            last_reader.pop(root, None)
        self._release: list[list[int]] = [[] for _ in nodes]
        for node, reader in last_reader.items():
            self._release[reader].append(node)
        self.block_size = 4 ** min(len(self.names), BLOCK_VARS)

    def blocks(self, clauses: Clauses) -> Iterator[tuple[int, list[Planes]]]:
        """``(block number, planes of each formula)`` for every block, in
        scan order."""
        n = len(self.names)
        cycling = min(n, BLOCK_VARS)
        fixed = n - cycling
        full = (1 << self.block_size) - 1
        mask1 = sum(1 << d for d, (has1, _) in enumerate(clauses.codes) if has1)
        mask0 = sum(1 << d for d, (_, has0) in enumerate(clauses.codes) if has0)
        atoms: list[Planes] = [(0, 0)] * fixed + [
            (_cycle_plane(rank, cycling, mask1), _cycle_plane(rank, cycling, mask0))
            for rank in reversed(range(cycling))]
        for block in range(4 ** fixed):
            for i in range(fixed):
                has1, has0 = clauses.codes[(block >> 2 * (fixed - 1 - i)) & 3]
                atoms[i] = (full if has1 else 0, full if has0 else 0)
            yield block, self.planes(clauses, atoms, full)

    def planes(self, clauses: Clauses, atoms: Sequence[Planes], full: int) -> list[Planes]:
        """Planes of each formula, given the planes of each variable and
        the all-ones plane ``full``: the one evaluation loop."""
        neg, conj, disj = clauses.neg, clauses.conj, clauses.disj
        nodes, release = self.nodes, self._release
        p1: list = [0] * len(nodes)
        p0: list = [0] * len(nodes)
        for i, (op, a, b) in enumerate(nodes):
            if op == _ATOM:
                p1[i], p0[i] = atoms[a]
            elif op == _NEG:
                p1[i], p0[i] = neg(p1[a], p0[a], full)
            elif op == _AND:
                p1[i], p0[i] = conj(p1[a], p0[a], p1[b], p0[b])
            else:
                p1[i], p0[i] = disj(p1[a], p0[a], p1[b], p0[b])
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
        full = (1 << self.block_size) - 1
        for block, planes in self.blocks(clauses):
            bad = full
            for p1, p0 in planes[:-1]:
                bad &= clauses.designated(p1, p0, full)
            bad &= ~clauses.designated(*planes[-1], full)
            if bad:
                index = block * self.block_size + (bad & -bad).bit_length() - 1
                return self.digits(index), index + 1
        return None, 4 ** len(self.names)

    def digits(self, index: int) -> list[int]:
        """Scan digit of each variable in interpretation ``index``."""
        n = len(self.names)
        return [(index >> 2 * (n - 1 - i)) & 3 for i in range(n)]


@functools.cache
def _cycle_plane(rank: int, cycling: int, mask: int) -> int:
    """Plane of the variable ``rank`` places before the fastest one, over
    a block in which ``cycling`` variables cycle: bit ``k`` is set when
    digit ``(k >> 2 * rank) & 3`` is in ``mask``.  Built by shift-doubling
    on first use; at most 16 * BLOCK_VARS ** 2 of them exist."""
    run = 4 ** rank
    plane = 0
    for digit in range(4):
        if mask >> digit & 1:
            plane |= ((1 << run) - 1) << digit * run
    width, size = 4 * run, 4 ** cycling
    while width < size:
        plane |= plane << width
        width *= 2
    return plane
