"""Seeded input generators.  Everything here is a pure function of the
``random.Random`` it is given, so a seed fixes every input.

Formulas use the tuple form of :mod:`refmodel`.
"""

from __future__ import annotations

import random

from refmodel import render, size

NEGATION_DEPTHS = (1, 1, 1, 2, 3)
LEAVES_PER_ATOM = 1.5


def atom_names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct atom names, shuffled so first-occurrence order varies."""
    letters = "abcdefghkmnpqrstuvwy"
    names = rng.sample(letters, n)
    return [f"{c}{rng.randrange(10)}" if rng.random() < 0.3 else c for c in names]


def combine(rng: random.Random, leaves: list, neg_rate: float = 0.25):
    """A random formula whose leaves are ``leaves`` in order."""
    items = [_maybe_neg(rng, leaf, neg_rate) for leaf in leaves]
    while len(items) > 1:
        k = rng.randrange(len(items) - 1)
        node = (rng.choice("&|"), items[k], items[k + 1])
        items[k:k + 2] = [_maybe_neg(rng, node, neg_rate)]
    return items[0]


def _maybe_neg(rng: random.Random, f, rate: float):
    if rng.random() < rate:
        for _ in range(rng.choice(NEGATION_DEPTHS)):
            f = ("~", f)
    return f


def random_formula(rng: random.Random, names: list[str], leaves: int,
                   shared: bool = False):
    """A formula over ``names`` with ``leaves`` leaves; every name occurs.

    With ``shared`` some leaves are copies of one small subformula (the
    same tuple object), so the formula repeats that subformula.
    """
    extra = max(0, leaves - len(names))
    picks = [rng.choice(names) for _ in range(extra)]
    if shared and len(names) >= 2:
        sub = combine(rng, rng.sample(names, 2))
        picks[:max(2, leaves // 4)] = [sub] * max(2, leaves // 4)
    picks += names
    rng.shuffle(picks)
    return combine(rng, picks)


def random_sequent(rng: random.Random, names: list[str], premises: int,
                   shared: bool = False):
    """Premises and a conclusion over ``names``; every name occurs somewhere."""
    parts = premises + 1
    pool = list(names)
    rng.shuffle(pool)
    groups = [pool[k::parts] for k in range(parts)]
    formulas = []
    for group in groups:
        own = group or [rng.choice(names)]
        leaves = max(2, round(len(own) * LEAVES_PER_ATOM))
        picks = own + [rng.choice(names) for _ in range(leaves - len(own))]
        formulas.append(random_formula(rng, sorted(set(picks), key=picks.index),
                                       leaves, shared))
    return formulas[:-1], formulas[-1]


def nn_axiom(f):
    """A | ~~A, designated under every interpretation."""
    return ("|", f, ("~", ("~", f)))


# --------------------------------------------------------------------------
# Derivations in the JSON tree format of the README, built top-down so
# that every tree is correct by construction.

class DerivationBuilder:
    """Random derivations of given goals.

    ``prove`` returns a JSON node.  ``open`` maps each formula of a Hyp
    leaf that no OrE/NOrE discharges to its label; ``nodes`` counts the
    nodes built and ``goals`` maps ``id(node)`` to its conclusion.
    """

    MAX_GROW = 12  # goals larger than this are only taken apart, never grown

    def __init__(self, rng: random.Random, names: list[str]) -> None:
        self.rng = rng
        self.names = names
        self.open: dict = {}
        self.nodes = 0
        self.goals: dict = {}
        self._labels = 0

    def _label(self, prefix: str) -> str:
        self._labels += 1
        return f"{prefix}{self._labels}"

    def _node(self, rule: str, goal, premises=(), **extra) -> dict:
        self.nodes += 1
        node = {"rule": rule, "conclusion": render(goal), "premises": list(premises)}
        node.update(extra)
        self.goals[id(node)] = goal
        return node

    def _small(self):
        return combine(self.rng, [self.rng.choice(self.names)
                                  for _ in range(self.rng.choice((1, 1, 2)))])

    def _hyp(self, goal, label: str | None = None) -> dict:
        if label is None:
            label = self.open.get(goal)
            if label is None:
                label = self.open[goal] = self._label("a")
        return self._node("Hyp", goal, label=label)

    def prove(self, goal, budget: int, scope: tuple = ()) -> dict:
        """A derivation of ``goal`` with about ``budget`` nodes.

        ``scope`` lists (label, formula) hypotheses that an enclosing case
        rule discharges.
        """
        for label, f in reversed(scope):
            if f == goal:
                return self._hyp(goal, label)
            if not isinstance(f, str) and f[0] == "&" and goal in (f[1], f[2]):
                rule = "AndE_L" if f[1] == goal else "AndE_R"
                return self._node(rule, goal, [self._hyp(f, label)])
        if not isinstance(goal, str) and goal[0] == "|" and goal[2] == ("~", ("~", goal[1])):
            return self._node("NN2", goal)
        if budget <= 1:
            return self._hyp(goal)
        rng = self.rng
        rest = budget - 1
        half = rest // 2
        grow = size(goal) <= self.MAX_GROW
        choice = rng.random()
        if not isinstance(goal, str):
            op, body = goal[0], goal[1]
            if op == "&":
                return self._node("AndI", goal, [self.prove(goal[1], half, scope),
                                                 self.prove(goal[2], rest - half, scope)])
            if op == "|" and (choice < 0.7 or not grow):
                rule, part = rng.choice((("OrI_L", goal[1]), ("OrI_R", goal[2])))
                return self._node(rule, goal, [self.prove(part, rest, scope)])
            if op == "~" and not isinstance(body, str) and body[0] == "&" and (choice < 0.7 or not grow):
                return self._node("NAndI", goal, [self.prove(("~", body[1]), half, scope),
                                                  self.prove(("~", body[2]), rest - half, scope)])
            if op == "~" and not isinstance(body, str) and body[0] == "|" and (choice < 0.7 or not grow):
                rule, part = rng.choice((("NOrI_L", body[1]), ("NOrI_R", body[2])))
                return self._node(rule, goal, [self.prove(("~", part), rest, scope)])
            if not grow:
                return self._hyp(goal)
            if op == "~" and choice < 0.8:
                x = self._small()
                if rng.random() < 0.5:
                    return self._node("NAndE_L", goal, [self.prove(("~", ("&", body, x)), rest, scope)])
                return self._node("NAndE_R", goal, [self.prove(("~", ("&", x, body)), rest, scope)])
        choice = rng.random()
        if choice < 0.3:
            return self._cases(goal, rest, scope)
        x = self._small()
        if choice < 0.85:
            if rng.random() < 0.5:
                return self._node("AndE_L", goal, [self.prove(("&", goal, x), rest, scope)])
            return self._node("AndE_R", goal, [self.prove(("&", x, goal), rest, scope)])
        return self._node("NN1", goal, [self.prove(x, half, scope),
                                        self.prove(("~", ("~", x)), rest - half, scope)])

    def _cases(self, goal, budget: int, scope: tuple) -> dict:
        """OrE or NOrE whose two case branches each yield ``goal``."""
        rng = self.rng
        share = max(1, budget // 3)
        labels = (self._label("h"), self._label("h"))
        if rng.random() < 0.3:
            a, b = self._small(), self._small()
            if not isinstance(goal, str) and goal[0] == "~":
                a = goal[1]
            major = self.prove(("~", ("|", a, b)), share, scope)
            branches = [self._from_case(goal, label, ("~", f), share, scope)
                        for label, f in zip(labels, (a, b))]
            return self._node("NOrE", goal, [major, *branches], discharge=list(labels))
        x = self._small()
        cases = rng.choice(((("&", goal, x), goal), (goal, ("&", x, goal)),
                            (("&", x, goal), ("&", goal, x))))
        major = self.prove(("|", *cases), share, scope)
        branches = [self.prove(goal, share, scope + ((label, f),))
                    for label, f in zip(labels, cases)]
        return self._node("OrE", goal, [major, *branches], discharge=list(labels))

    def _from_case(self, goal, label: str, case, budget: int, scope: tuple) -> dict:
        """Derive ``goal`` from the case hypothesis: directly when they are
        equal, otherwise by NN1 from the case and its double negation."""
        if case == goal:
            return self._hyp(goal, label)
        second = self.prove(("~", ("~", case)), max(1, budget - 1), scope + ((label, case),))
        return self._node("NN1", goal, [self._hyp(case, label), second])


INTRO_RULES = frozenset({"AndI", "OrI_L", "OrI_R", "NAndI", "NOrI_L", "NOrI_R"})
HYP_ONLY_RULES = frozenset({"AndE_L", "AndE_R", "NAndE_L", "NAndE_R", "NN1"})


def search_height(node: dict) -> int | None:
    """The height of a derivation that bounded backward search must find.

    The fragment: Hyp and NN2 leaves; introduction rules; AndE, NAndE
    and NN1 applied to Hyp premises only; OrE and NOrE whose major
    premise is a Hyp.  A search that tries, at every height, every
    assumption, the goal's introduction rule and a case split on every
    assumption finds a derivation of a goal that has one of height h in
    this fragment whenever its bound is at least h.  None for a tree
    outside the fragment.
    """
    rule, premises = node["rule"], node["premises"]
    if rule in ("Hyp", "NN2"):
        return 1
    if rule in HYP_ONLY_RULES:
        return 2 if all(p["rule"] == "Hyp" for p in premises) else None
    if rule in ("OrE", "NOrE"):
        if premises[0]["rule"] != "Hyp":
            return None
        premises = premises[1:]
    elif rule not in INTRO_RULES:
        return None
    heights = [search_height(p) for p in premises]
    return None if None in heights else 1 + max(heights)


def node_paths(root: dict):
    """Yield (path, node) for every node, preorder."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for k in range(len(node["premises"]) - 1, -1, -1):
            stack.append((path + (k,), node["premises"][k]))


def corrupt(rng: random.Random, root: dict, goals: dict) -> tuple[tuple, str]:
    """Negate the conclusion of one node whose rule constrains it.

    The node's own schema check then fails before any ancestor is
    checked, so the error names exactly this path and rule.
    """
    candidates = [(path, node) for path, node in node_paths(root)
                  if node["rule"] not in ("Hyp", "NN1")]
    path, node = rng.choice(candidates)
    node["conclusion"] = render(("~", goals[id(node)]))
    return path, node["rule"]
