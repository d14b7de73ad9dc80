"""Shared formula and sequent generators and reference scans for the
test suite.

Two flavours of generator: a seeded ``random.Random`` generator for tests
that need a fixed, reproducible sample of a given size, and hypothesis
strategies for property tests that benefit from shrinking.  The reference
scans enumerate interpretations one at a time with the recursive
evaluators; the block engine must agree with them exactly.
"""

from __future__ import annotations

import random
from itertools import product

from hypothesis import strategies as st

from cnl4.fc import BinaryTable, UnaryTable
from cnl4.formula import And, Atom, Formula, Neg, Or, Sequent, sequent_variables, variables
from cnl4.matrix import CANONICAL_ORDER, DESIGNATED, WITNESS_ORDER, evaluate, interpretations
from cnl4.relational import (
    Mismatch,
    OptionReading,
    correspond,
    rel_designated,
    rel_eval,
)

DEFAULT_ATOMS = ("p", "q", "r")


def random_formula(
    rng: random.Random,
    max_depth: int,
    atoms: tuple[str, ...] = DEFAULT_ATOMS,
) -> Formula:
    """Return a random formula of connective depth at most ``max_depth``."""
    if max_depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(random_formula(rng, max_depth - 1, atoms))
    left = random_formula(rng, max_depth - 1, atoms)
    right = random_formula(rng, max_depth - 1, atoms)
    return And(left, right) if kind == 1 else Or(left, right)


def random_sequent(
    rng: random.Random,
    max_premises: int = 2,
    max_depth: int = 3,
    atoms: tuple[str, ...] = ("p", "q"),
) -> Sequent:
    premises = tuple(
        random_formula(rng, max_depth, atoms)
        for _ in range(rng.randint(0, max_premises))
    )
    return Sequent(premises, random_formula(rng, max_depth, atoms))


def formula_strategy(
    atoms: tuple[str, ...] = DEFAULT_ATOMS,
    max_leaves: int = 16,
) -> st.SearchStrategy[Formula]:
    base = st.sampled_from([Atom(name) for name in atoms])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda pair: And(pair[0], pair[1])),
            st.tuples(sub, sub).map(lambda pair: Or(pair[0], pair[1])),
        ),
        max_leaves=max_leaves,
    )


def reference_consequence(
    s: Sequent, option: OptionReading | None = None,
) -> tuple[bool, dict | None, int]:
    """``(valid, first witness, checked)`` by enumerating interpretations
    in :data:`WITNESS_ORDER` (its image under ``option``, which selects
    the option's clauses), evaluating each formula recursively."""
    names = sequent_variables(s)
    if option is None:
        order = WITNESS_ORDER

        def designated(f, inter):
            return evaluate(f, inter) in DESIGNATED
    else:
        order = [correspond(option, v) for v in WITNESS_ORDER]

        def designated(f, inter):
            return rel_designated(option, rel_eval(option, f, inter))
    checked = 0
    for values in product(order, repeat=len(names)):
        inter = dict(zip(names, values))
        checked += 1
        if all(designated(p, inter) for p in s.premises):
            if not designated(s.conclusion, inter):
                return False, inter, checked
    return True, None, checked


def reference_mismatches(option: OptionReading, f: Formula) -> list[Mismatch]:
    """Interpretations, in ``CANONICAL_ORDER``, under which translating the
    matrix value of ``f`` differs from evaluating the option's clauses on
    translated atoms."""
    mismatches = []
    for inter in interpretations(variables(f)):
        via_map = correspond(option, evaluate(f, inter))
        assignment = {name: correspond(option, v) for name, v in inter.items()}
        via_clauses = rel_eval(option, f, assignment)
        if via_map != via_clauses:
            mismatches.append(Mismatch(inter, via_map, via_clauses))
    return mismatches


def deep_formula_texts(depth: int) -> dict[str, str]:
    """Formulas of exactly ``depth`` nested connectives, by shape."""
    return {
        "negations": "~" * depth + "p",
        "left chain": " & ".join(["p"] * (depth + 1)),
        "parenthesised right chain": "p | (" * (depth - 1) + "p | q" + ")" * (depth - 1),
        "negated chain": "~(" + " & ".join("pq"[k % 2] for k in range(depth)) + ")",
    }


def and_elim_chain(levels: int, top: int = 0) -> str:
    """JSON text of a valid derivation ``levels`` nodes deep: a chain of
    AndE_L whose root concludes a left chain of ``top`` conjunctions over
    ``p``, each premise conjoining one more ``p``, down to a Hyp.  Built as
    text, since the JSON encoder recurses per level."""
    def conj(k: int) -> str:
        return " & ".join(["p"] * (k + 1))

    head = "".join(f'{{"rule": "AndE_L", "conclusion": "{conj(top + k)}", "premises": ['
                   for k in range(levels - 1))
    foot = f'{{"rule": "Hyp", "label": "a", "conclusion": "{conj(top + levels - 1)}"}}'
    return head + foot + "]}" * (levels - 1)


def all_unary_tables() -> list[UnaryTable]:
    """All 256 unary functions on the four-element carrier."""
    return [UnaryTable(outs) for outs in product(CANONICAL_ORDER, repeat=4)]


def is_unary_reducible(f: BinaryTable, tables=None) -> bool:
    """Literal reducibility check: does some unary g tabulate f?

    Quantifies g over all 256 unary tables (or a supplied collection);
    an independent cross-check of ``fc.is_essentially_binary``.
    """
    values = CANONICAL_ORDER
    for g in all_unary_tables() if tables is None else tables:
        if all(f.apply(a, b) == g.apply(a) for a in values for b in values):
            return True
        if all(f.apply(a, b) == g.apply(b) for a in values for b in values):
            return True
    return False
