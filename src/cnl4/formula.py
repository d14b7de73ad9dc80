"""Syntax of the propositional language: formulas over ~, & and |.

Grammar (whitespace insignificant)::

    formula := disj
    disj    := conj ("|" conj)*
    conj    := neg ("&" neg)*
    neg     := "~" neg | atom | "(" formula ")"
    atom    := [a-z][a-zA-Z0-9_]*

Negation binds tighter than conjunction, which binds tighter than
disjunction; the binary connectives associate to the left.  Sequents are
written ``P1, P2 |- C``; the premise list may be empty (``|- C``).
Formulas nested deeper than :data:`MAX_DEPTH`, or with more parentheses
open at once, are refused.  The parser, :func:`subformulas`, :func:`variables`
and :func:`size` keep explicit stacks and do not recurse; printing,
:func:`substitute`, hashing and comparing formulas still recurse.

Equal subformulas of one parse are one object, and so are those of calls
given the same ``nodes`` dict (``nd.from_json_dict`` passes one per proof
tree), so comparing them takes tuple comparison's identity short-cut.
There is no module-level table of formulas: equality (tuple comparison,
in C) and hashing stay structural.

The printer emits minimal parentheses and round-trips exactly:
``parse(format_formula(f)) == f`` for every formula ``f``.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import itemgetter
from typing import Iterator, NamedTuple


class ParseError(Exception):
    """Malformed formula or sequent text.

    ``position`` is the 1-based offset of the first offending character;
    input that ends too early reports ``len(text) + 1``.
    """

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class TaggedTuple(tuple):
    """Base class for a record that is the tuple of its class and its
    fields.  Two records are equal when they have the same class and equal
    fields, and a record equals only a tuple that holds its class.

    Records are immutable: assigning or deleting a field raises
    :class:`AttributeError`.  ``repr`` names every field, and ``_fields``
    lists a record class's fields in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # tuple's own pickling would hand the class item back to __new__
        return type(self), self[1:]


class Formula(TaggedTuple):
    """Base class for formula nodes: ``And(p, q)`` is ``(And, p, q)``, and
    atoms order by name."""

    __slots__ = ()

    # tuple's hash recurses in C unchecked, so a deep formula would crash
    # the interpreter; this one spends a frame per level and raises
    # RecursionError instead.  It hashes like the tuple of the fields.
    def __hash__(self) -> int:
        return hash(self[1:])

    def __str__(self) -> str:
        return format_formula(self)


class Atom(Formula):
    __slots__ = ()
    _fields = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str) -> Atom:
        return tuple.__new__(cls, (cls, name))


class Neg(Formula):
    __slots__ = ()
    _fields = ("body",)
    body = property(itemgetter(1))

    def __new__(cls, body: Formula) -> Neg:
        return tuple.__new__(cls, (cls, body))


class And(Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Formula, right: Formula) -> And:
        return tuple.__new__(cls, (cls, left, right))


class Or(Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Formula, right: Formula) -> Or:
        return tuple.__new__(cls, (cls, left, right))


class Sequent(NamedTuple):
    """Premises and a conclusion; premises keep their given order."""

    premises: tuple[Formula, ...]
    conclusion: Formula

    def __str__(self) -> str:
        return format_sequent(self)


# --------------------------------------------------------------------------
# Parser (precedence loop over a token list, one frame per open parenthesis)

#: Deepest formula the parser accepts, counting connectives on the longest
#: path from the root to an atom (an atom has depth 0), and the most
#: parentheses that may be open at once.  Deeper input raises
#: :class:`ParseError`.  The parser and the evaluator do not recurse, but
#: per formula level printing takes one interpreter frame, comparing one
#: count of the recursion limit (in C) and hashing two (one frame, counted
#: twice by CPython 3.10-3.12).  Under pytest with 150 extra frames on the
#: stack every command succeeds at depth 400, and one fails at 420 (3.11).
MAX_DEPTH = 200

_TOKEN = re.compile(r"\|-|[~&|(),]|[a-z][A-Za-z0-9_]*")
# finds the first character no token starts at, on the error path only
_LEXEME = re.compile(r"\s+|" + _TOKEN.pattern)
_SYMBOLS = frozenset(("~", "&", "|", "(", ")", ",", "|-", ""))


def _error(text: str, k: int, message: str) -> ParseError:
    """The error at token ``k`` of ``text``; the end-of-input sentinel
    after the last token reports ``len(text) + 1``."""
    match = next(islice(_TOKEN.finditer(text), k, None), None)
    return ParseError(match.start() + 1 if match else len(text) + 1, message)


def _too_deep(text: str, k: int) -> ParseError:
    return _error(text, k, f"formula nested deeper than {MAX_DEPTH} levels")


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text``, ending with an ``""`` sentinel."""
    tokens = _TOKEN.findall(text)
    # tokens hold no whitespace, so they cover every other character
    # exactly when they are as long as the text without its whitespace
    if len("".join(tokens)) != len("".join(text.split())):
        end = 0
        for match in _LEXEME.finditer(text):
            if match.start() != end:
                break
            end = match.end()
        raise ParseError(end + 1, f"unexpected character {text[end]!r}")
    tokens.append("")
    return tokens


def _formula(text: str, tokens: list[str], i: int, nodes: dict) -> tuple[Formula, int]:
    """Parse one formula from ``tokens[i]`` on; return it with the index of
    the token after it.  ``nodes`` holds every node built so far, an atom
    under its name and any other node under its class and children's ids.

    Every subformula carries its depth, so the depth bound covers chains of
    binary connectives as well as nesting.  ``left_and``/``left_or`` hold
    the pending left operand of ``&``/``|`` at the current parenthesis
    level, with its depth and the operator's token index; an open
    parenthesis pushes them, with the ``~``-run before it, onto ``frames``.
    """
    # tuple.__new__ builds each node as its class's __new__ would, minus a call
    new = tuple.__new__
    frames: list[tuple] = []
    left_or = left_and = None
    or_depth = or_at = and_depth = and_at = 0
    while True:
        first = i
        token = tokens[i]
        i += 1
        while token == "~":
            token = tokens[i]
            i += 1
        negations = i - 1 - first
        if token == "(":
            if len(frames) == MAX_DEPTH:
                raise _too_deep(text, i - 1)
            frames.append((negations, first, left_or, or_depth, or_at,
                           left_and, and_depth, and_at))
            left_or = left_and = None
            continue
        if token in _SYMBOLS:
            raise _error(text, i - 1, "expected a formula")
        f = nodes.get(token) or nodes.setdefault(token, new(Atom, (Atom, token)))
        depth = 0
        # close the operand's ~-run, then every &, | and parenthesis it ends
        while True:
            if negations:
                if depth + negations > MAX_DEPTH:
                    # the ~ that takes the depth past the bound
                    raise _too_deep(text, first + negations - 1 - (MAX_DEPTH - depth))
                for _ in range(negations):
                    key = (Neg, id(f))
                    f = nodes.get(key) or nodes.setdefault(key, new(Neg, (Neg, f)))
                depth += negations
            if left_and is not None:
                key = (And, id(left_and), id(f))
                f = nodes.get(key) or nodes.setdefault(key, new(And, (And, left_and, f)))
                depth = (and_depth if and_depth > depth else depth) + 1
                if depth > MAX_DEPTH:
                    raise _too_deep(text, and_at)
            token = tokens[i]
            if token == "&":
                left_and, and_depth, and_at = f, depth, i
                i += 1
                break
            left_and = None
            if left_or is not None:
                key = (Or, id(left_or), id(f))
                f = nodes.get(key) or nodes.setdefault(key, new(Or, (Or, left_or, f)))
                depth = (or_depth if or_depth > depth else depth) + 1
                if depth > MAX_DEPTH:
                    raise _too_deep(text, or_at)
            if token == "|":
                left_or, or_depth, or_at = f, depth, i
                i += 1
                break
            left_or = None
            if not frames:
                return f, i
            if token != ")":
                raise _error(text, i, "expected ')'")
            i += 1
            (negations, first, left_or, or_depth, or_at,
             left_and, and_depth, and_at) = frames.pop()


def parse(text: str, nodes: dict | None = None) -> Formula:
    """Parse a single formula; raise :class:`ParseError` on bad input.
    Calls given the same ``nodes`` dict share equal subformulas."""
    tokens = _tokenize(text)
    f, i = _formula(text, tokens, 0, {} if nodes is None else nodes)
    if tokens[i]:
        raise _error(text, i, "unexpected trailing input")
    return f


def parse_sequent(text: str) -> Sequent:
    """Parse ``P1, P2 |- C``.  The premise list may be empty.  Equal
    subformulas of the premises and conclusion are one object."""
    tokens = _tokenize(text)
    nodes: dict = {}
    premises: list[Formula] = []
    i = 0
    if tokens[0] != "|-":
        f, i = _formula(text, tokens, 0, nodes)
        premises.append(f)
        while tokens[i] == ",":
            f, i = _formula(text, tokens, i + 1, nodes)
            premises.append(f)
    if tokens[i] != "|-":
        raise _error(text, i, "expected '|-'")
    conclusion, i = _formula(text, tokens, i + 1, nodes)
    if tokens[i]:
        raise _error(text, i, "unexpected trailing input")
    return Sequent(tuple(premises), conclusion)


# --------------------------------------------------------------------------
# Printer

#: How tightly each connective binds; a child bound less tightly than its
#: position asks for is printed in parentheses.
_BINDING = {Or: 1, And: 2, Neg: 3, Atom: 4}


def _fmt(f: Formula, min_binding: int) -> str:
    cls = type(f)
    binding = _BINDING.get(cls)
    if binding is None:
        raise TypeError(f"not a formula: {f!r}")
    if binding < min_binding:
        return "(" + _fmt(f, 0) + ")"
    if cls is Atom:
        return f[1]
    if cls is Neg:
        return "~" + _fmt(f[1], binding)
    # a same-binding right child needs parentheses to keep the left
    # association visible on re-parse
    return _fmt(f[1], binding) + (" & " if cls is And else " | ") + _fmt(f[2], binding + 1)


def format_formula(f: Formula) -> str:
    """Render ``f`` with minimal parentheses."""
    return _fmt(f, 0)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(p) for p in s.premises)
    if left:
        return f"{left} |- {format_formula(s.conclusion)}"
    return f"|- {format_formula(s.conclusion)}"


# --------------------------------------------------------------------------
# Structural helpers

def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and all its subformulas, preorder, left before right."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if type(g) in (Neg, And, Or):
            stack += g[:0:-1]  # the children, right first, so left pops first


def variables(f: Formula) -> list[str]:
    """Atom names in order of first occurrence (left to right)."""
    return list(dict.fromkeys(g[1] for g in subformulas(f) if type(g) is Atom))


def sequent_variables(s: Sequent) -> list[str]:
    """First-occurrence variable order across premises, then conclusion."""
    return list(dict.fromkeys(name for f in (*s.premises, s.conclusion)
                              for name in variables(f)))


def substitute(f: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every atom called ``name`` in ``f`` by ``replacement``."""
    cls = type(f)
    if cls is Atom:
        return replacement if f[1] == name else f
    if cls is Neg:
        return Neg(substitute(f[1], name, replacement))
    if cls is And or cls is Or:
        return cls(substitute(f[1], name, replacement), substitute(f[2], name, replacement))
    raise TypeError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    """Number of AST nodes in ``f``."""
    return sum(1 for _ in subformulas(f))
