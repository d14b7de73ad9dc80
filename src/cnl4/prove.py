"""Bounded backward proof search over the calculus of :mod:`cnl4.nd`.

Search lives apart from ``nd`` so that checking, loading and rendering a
proof never compile it: ``check-proof`` and ``corpus`` load ``nd`` alone,
and ``search-proof`` loads both.  ``nd.search`` and ``cnl4.search``
resolve to :func:`search` here on first read.

At its first case split, search decides the sequent through ``nd``'s
lazily bound ``is_consequence`` (``nd.is_consequence``), so a wrapper
installed there sees the call, and ``matrix`` is loaded only then.
"""

from __future__ import annotations

import itertools

from . import nd
from .formula import And, Formula, Neg, Or, Sequent
from .nd import (Derivation, _is_double_negation, and_e_l, and_e_r, and_i, hyp, nand_e_l,
                 nand_e_r, nand_i, nn1, nn2, nor_e, nor_i_l, nor_i_r, or_e, or_i_l, or_i_r)

DEFAULT_DEPTH = 6

#: Largest search depth :func:`search` accepts.  Search recurses once per
#: level.  Under pytest with 150 extra frames on the stack, a search that
#: splits a disjunction at every level and compares formulas at
#: :data:`~cnl4.formula.MAX_DEPTH` completes at depth 608 and overflows at
#: 610.  A search whose first case split, and so its matrix check, sits
#: 199 levels down completes at depth 200 in a fresh interpreter, where
#: that check first imports ``matrix`` (through ``nd``'s ``__getattr__``),
#: with 768 extra frames and overflows with 769; with ``matrix`` already
#: loaded, 790 and 791 (Python 3.11).
MAX_SEARCH_DEPTH = 200


def search(s: Sequent, depth: int = DEFAULT_DEPTH) -> Derivation | None:
    """Goal-directed backward search, bounded by tree height ``depth``.

    Deterministic: assumption order and a fixed rule order decide the
    result.  ``None`` means the sequent is matrix-invalid, so by soundness
    it has no derivation (checked at the first case split, up to
    ``DEFAULT_CAP`` variables), or that no derivation was found within the
    bound.  Raises ``ValueError`` when ``depth`` is below 1 or exceeds
    :data:`MAX_SEARCH_DEPTH`.
    """
    if depth < 1:
        raise ValueError(f"search depth {depth} is below 1")
    if depth > MAX_SEARCH_DEPTH:
        raise ValueError(f"search depth {depth} exceeds the bound of {MAX_SEARCH_DEPTH}")
    # dict.fromkeys drops repeated premises and keeps first occurrences in order
    assumptions = [(f"p{i}", p) for i, p in enumerate(dict.fromkeys(s.premises), 1)]
    return _prove(s.conclusion, assumptions, depth, _Search(s))


class _Search:
    """One search's state: the counter behind the ``h<n>`` case labels, and
    the sequent's matrix verdict, computed at the first case split, since
    case analysis alone makes bounded search blow up.  Above the cap the
    verdict is ``True`` and search goes on unchecked."""

    __slots__ = ("sequent", "labels", "valid")

    def __init__(self, s: Sequent) -> None:
        self.sequent = s
        self.labels = itertools.count(1)
        self.valid: bool | None = None

    def may_split(self) -> bool:
        if self.valid is None:
            # the first read of nd.is_consequence binds matrix's names in nd
            try:
                self.valid = nd.is_consequence(self.sequent).valid
            except nd.CapExceededError:
                self.valid = True
        return self.valid


def _find(assumptions: list[tuple[str, Formula]], f: Formula) -> str | None:
    for label, g in assumptions:
        if g == f:
            return label
    return None


def _prove(goal: Formula, assumptions: list[tuple[str, Formula]],
           depth: int, state: _Search) -> Derivation | None:
    label = _find(assumptions, goal)
    if label is not None:
        return hyp(label, goal)

    # shapes are tested in place: building ~~A just to compare costs two nodes
    if type(goal) is Or and _is_double_negation(goal[2], goal[1]):
        return nn2(goal[1])

    if depth >= 2:
        doubled = [(label, g) for label, g in assumptions
                   if type(g) is Neg and type(g[1]) is Neg]
        for label_a, f in assumptions:
            for label_nn, g in doubled:
                if g[1][1] == f:
                    return nn1(hyp(label_a, f), hyp(label_nn, g), goal)

        # a goal is a body, negated or not: NAnd and NOr push ~ through & and |
        negated = type(goal) is Neg
        body = goal[1] if negated else goal
        if type(body) is And:  # both parts: the body's children, negated with the goal
            left = _prove(Neg(body[1]) if negated else body[1], assumptions, depth - 1, state)
            if left is not None:
                right = _prove(Neg(body[2]) if negated else body[2], assumptions, depth - 1, state)
                if right is not None:
                    return (nand_i if negated else and_i)(left, right)
        elif type(body) is Or:  # either part; its rule takes the other child un-negated
            left = _prove(Neg(body[1]) if negated else body[1], assumptions, depth - 1, state)
            if left is not None:
                return (nor_i_l if negated else or_i_l)(left, body[2])
            right = _prove(Neg(body[2]) if negated else body[2], assumptions, depth - 1, state)
            if right is not None:
                return (nor_i_r if negated else or_i_r)(right, body[1])

        # an assumption is read as a goal is, a body negated or not.  A & B gives
        # A or B; ~(A & B) gives ~A or ~B, so it is tried only on a negated goal
        for label_a, f in assumptions:
            negated_a = type(f) is Neg
            body_a = f[1] if negated_a else f
            if type(body_a) is And and (negated or not negated_a):
                part = body if negated_a else goal
                if body_a[1] == part:
                    return (nand_e_l if negated_a else and_e_l)(hyp(label_a, f))
                if body_a[2] == part:
                    return (nand_e_r if negated_a else and_e_r)(hyp(label_a, f))

        # case analysis on A | B or ~(A | B), tried last: the cases are the
        # body's children, negated with the assumption
        for label_a, f in assumptions:
            negated_a = type(f) is Neg
            body_a = f[1] if negated_a else f
            if type(body_a) is not Or:
                continue
            if not state.may_split():  # invalid: no split can find a derivation
                return None
            cases = (Neg(body_a[1]), Neg(body_a[2])) if negated_a else body_a[1:]
            label_l = f"h{next(state.labels)}"
            label_r = f"h{next(state.labels)}"
            left = _prove(goal, assumptions + [(label_l, cases[0])], depth - 1, state)
            if left is None:
                continue
            right = _prove(goal, assumptions + [(label_r, cases[1])], depth - 1, state)
            if right is None:
                continue
            return (nor_e if negated_a else or_e)(hyp(label_a, f), left, right, (label_l, label_r))

    return None
