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
Formulas nested deeper than :data:`MAX_DEPTH` are refused.

The printer emits minimal parentheses and round-trips exactly:
``parse(format_formula(f)) == f`` for every formula ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class ParseError(Exception):
    """Malformed formula or sequent text.

    ``position`` is the 1-based offset of the first offending character;
    input that ends too early reports ``len(text) + 1``.
    """

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class Formula:
    """Base class for formula nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Sequent:
    """Premises and a conclusion; premises keep their given order."""

    premises: tuple[Formula, ...]
    conclusion: Formula

    def __str__(self) -> str:
        return format_sequent(self)


# --------------------------------------------------------------------------
# Tokenizer

_TOK_NAME = "name"
_TOK_NOT = "~"
_TOK_AND = "&"
_TOK_OR = "|"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_COMMA = ","
_TOK_TURNSTILE = "|-"
_TOK_EOF = "end of input"

#: Deepest formula the parser accepts, counting connectives on the longest
#: path from the root to an atom (an atom has depth 0), and the most
#: parentheses that may be open at once.  Deeper input raises
#: :class:`ParseError`.  Printing and comparing formulas recurse up to
#: three interpreter frames per level (evaluating does not recurse), so
#: every command must still succeed, with room to spare, at this depth.
MAX_DEPTH = 200


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


# --------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)

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


def parse(text: str) -> Formula:
    """Parse a single formula; raise :class:`ParseError` on bad input."""
    parser = _Parser(text)
    result = parser.formula()
    parser.end()
    return result


def parse_sequent(text: str) -> Sequent:
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


# --------------------------------------------------------------------------
# Printer

_PREC_OR = 1
_PREC_AND = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _fmt(f: Formula, min_prec: int) -> str:
    if _prec(f) < min_prec:
        return "(" + _fmt(f, _PREC_OR) + ")"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Neg):
        return "~" + _fmt(f.body, _PREC_NEG)
    if isinstance(f, And):
        # a same-precedence right child needs parentheses to keep the
        # left association visible on re-parse
        return _fmt(f.left, _PREC_AND) + " & " + _fmt(f.right, _PREC_AND + 1)
    if isinstance(f, Or):
        return _fmt(f.left, _PREC_OR) + " | " + _fmt(f.right, _PREC_OR + 1)
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Render ``f`` with minimal parentheses."""
    return _fmt(f, _PREC_OR)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(p) for p in s.premises)
    if left:
        return f"{left} |- {format_formula(s.conclusion)}"
    return f"|- {format_formula(s.conclusion)}"


# --------------------------------------------------------------------------
# Structural helpers

def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and all its subformulas, preorder, left before right."""
    yield f
    if isinstance(f, Neg):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def variables(f: Formula) -> list[str]:
    """Atom names in order of first occurrence (left to right)."""
    seen: dict[str, None] = {}
    for sub in subformulas(f):
        if isinstance(sub, Atom):
            seen.setdefault(sub.name)
    return list(seen)


def sequent_variables(s: Sequent) -> list[str]:
    """First-occurrence variable order across premises, then conclusion."""
    seen: dict[str, None] = {}
    for f in (*s.premises, s.conclusion):
        for name in variables(f):
            seen.setdefault(name)
    return list(seen)


def substitute(f: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every atom called ``name`` in ``f`` by ``replacement``."""
    if isinstance(f, Atom):
        return replacement if f.name == name else f
    if isinstance(f, Neg):
        return Neg(substitute(f.body, name, replacement))
    if isinstance(f, And):
        return And(substitute(f.left, name, replacement),
                   substitute(f.right, name, replacement))
    if isinstance(f, Or):
        return Or(substitute(f.left, name, replacement),
                  substitute(f.right, name, replacement))
    raise TypeError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    """Number of AST nodes in ``f``."""
    return sum(1 for _ in subformulas(f))
