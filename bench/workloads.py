"""The three workloads: how each builds its queries from a seed, runs one
query against cnl4 and judges the answer against :mod:`refmodel`.

Queries come in decks.  A deck has a fixed composition (the mix below)
in seeded random order, and a run always executes whole decks, so every
run of a workload sees the same mix whatever its seed or length.  The
mix puts p50 and p90 inside one class of query each:

* ``semantics``: 70 early refutations (p50) and 30 full scans (p90).
* ``proof``: 60 depth-6 searches (p50; half with one premise that
  offers a case split, half with none), 25 proof-tree checks, 15
  exhaustive searches at depth 7-8 (p90).
* ``cli``: 23 small verbs (p50 and p90), one deep-nesting input and one
  closure-backed ``fc`` verb.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import gen
from refmodel import (OPTION_MAPS, TRUTH_SET_TEXT, VALUES, Reference, atoms,
                      parse as ref_parse, render, render_sequent, size)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OPTION_IDS = ("O1", "O2", "O3", "O4")


@dataclass
class Query:
    kind: str               # class of query, for the mix
    arg: object             # what the program receives
    expect: object = None   # what the reference says
    meta: dict = field(default_factory=dict)


class Outcome:
    """A query's result, or the exception it raised."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error: BaseException | None = None) -> None:
        self.value = value
        self.error = error


def child_env(root: str) -> dict:
    """Environment for a cnl4 child process: the checkout's sources, and
    no CNL4_CAP from the caller's shell."""
    env = {k: v for k, v in os.environ.items() if k not in ("CNL4_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def program_tuple(f):
    """cnl4 formula -> reference tuple."""
    kind = type(f).__name__
    if kind == "Atom":
        return f.name
    if kind == "Neg":
        return ("~", program_tuple(f.body))
    return ("&" if kind == "And" else "|", program_tuple(f.left), program_tuple(f.right))


def valid_sequent(rng: random.Random, ref: Reference, n: int, shared: bool,
                  work: tuple[float, float] | None = None):
    """A valid sequent over ``n`` atoms: the conclusion joins designated
    parts of the premises (or an A | ~~A axiom) by & and adds a disjunct.

    With ``work``, only a sequent whose plain scan evaluates between
    ``work[0]`` and ``work[1]`` formula nodes per interpretation is
    returned, so that sequents of one size cost about the same.
    """
    while True:
        premises, conclusion, verdict = _valid_candidate(rng, ref, n, shared)
        if work is None or (work[0] * 4 ** n <= ref.scan_work(premises, conclusion)
                            <= work[1] * 4 ** n):
            return premises, conclusion, verdict


def _valid_candidate(rng: random.Random, ref: Reference, n: int, shared: bool):
    names = gen.atom_names(rng, n)
    premises, extra = gen.random_sequent(rng, names, 2, shared=shared)
    pool = list(premises)
    for p in premises:
        while not isinstance(p, str) and p[0] == "&":
            pool.append(p[2])
            p = p[1]
        pool.append(p)
    pool.append(gen.nn_axiom(gen.combine(rng, rng.sample(names, 2))))
    conclusion = ("&", rng.choice(pool), rng.choice(pool))
    conclusion = ("|", conclusion, extra) if rng.random() < 0.5 else ("|", extra, conclusion)
    verdict = ref.decide(premises, conclusion)
    if not verdict[0]:
        raise AssertionError(f"generated sequent is not valid: "
                             f"{render_sequent(premises, conclusion)}")
    return premises, conclusion, verdict


def invalid_sequent(rng: random.Random, ref: Reference, n: int):
    while True:
        premises, conclusion = gen.random_sequent(rng, gen.atom_names(rng, n),
                                                  rng.randint(1, 2))
        verdict = ref.decide(premises, conclusion)
        if not verdict[0]:
            return premises, conclusion, verdict


def case_splits(premises) -> int:
    """How many premises offer a case split (A | B or ~(A | B))."""
    return sum(not isinstance(f, str)
               and (f[0] == "|" or (f[0] == "~" and not isinstance(f[1], str) and f[1][0] == "|"))
               for f in premises)


def search_sequent(rng: random.Random, depth: int, splits: int):
    """Premises and goal of a small random derivation that ``search`` at
    ``depth`` must find: the derivation lies in the fragment of
    :func:`gen.search_height`, with a height from 2 to ``depth``.

    Exactly ``splits`` premises offer a case split.  Search cost grows
    steeply with that number, so fixing it per query keeps the cost of a
    deck's searches from swinging with the seed.
    """
    while True:
        names = gen.atom_names(rng, rng.choice((3, 4, 5)))
        builder = gen.DerivationBuilder(rng, names)
        goal = gen.random_formula(rng, names, rng.choice((2, 3, 4)))
        height = gen.search_height(builder.prove(goal, rng.randint(3, 14)))
        premises = sorted(builder.open, key=render)
        if height is not None and 2 <= height <= depth and case_splits(premises) == splits:
            return premises, goal


def proof_tree(rng: random.Random, corrupt: bool, nodes: tuple[int, int]):
    """A JSON derivation and what checking it must give: ("ok", open
    assumptions, conclusion) or ("error", path, rule) when corrupted."""
    while True:
        names = gen.atom_names(rng, rng.choice((3, 4, 5)))
        builder = gen.DerivationBuilder(rng, names)
        goal = gen.random_formula(rng, names, rng.choice((2, 3, 4)))
        tree = builder.prove(goal, rng.randint(*nodes))
        if builder.nodes >= nodes[0] // 2:
            break
    if corrupt:
        path, rule = gen.corrupt(rng, tree, builder.goals)
        return tree, ("error", path, rule)
    return tree, ("ok", set(builder.open), goal)


def derivation_ok(ref: Reference, d, premises, goal) -> bool:
    """A found derivation concludes the goal, checks, rests only on the
    premises, and its own sequent is valid by the reference."""
    import cnl4.nd
    try:
        checked = cnl4.nd.check(d)
    except cnl4.nd.DerivationError:
        return False
    used = [program_tuple(f) for f in checked.open_assumptions]
    return (program_tuple(checked.conclusion) == goal
            and set(used) <= set(premises)
            and ref.decide(used, goal)[0])


class Workload:
    name = ""
    deck_size = 0
    min_queries = 100
    # Code a fresh interpreter runs for setup_s: the import plus any
    # warm-up call a user of this workload pays once.
    setup_code = "import cnl4"

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ref = Reference(root)
        self.decks = 0

    def deck(self) -> list[Query]:
        queries = self.build_deck(self.decks)
        self.decks += 1
        self.rng.shuffle(queries)
        return queries

    def build_deck(self, index: int) -> list[Query]:
        raise NotImplementedError

    def judge(self, q: Query, out: Outcome) -> str:
        """'ok', 'failed' (an exception or an exit the answer does not
        call for) or 'wrong' (an answer the reference contradicts)."""
        raise NotImplementedError

    def finish(self) -> float:
        """Stop any process the workload started; return the peak
        resident memory, in MiB, of the processes that ran cnl4."""
        raise NotImplementedError


class InProcess(Workload):
    """One caller in this process, calling the library as ``cnl4.<name>``.

    ``ENTRY_POINTS`` lists those calls as (module, attribute, layer) for
    the tracer, which wraps them in place while a traced deck runs.
    """

    ENTRY_POINTS: list = []

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        import cnl4
        self.cnl4 = cnl4

    def warm_up(self) -> None:
        exec(self.setup_code, {})

    def finish(self) -> float:
        # this process's own high-water mark; ru_maxrss would also hold
        # that of the process which started this one
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc/self/status")

    def execute(self, q: Query):
        raise NotImplementedError

    def judge(self, q: Query, out: Outcome) -> str:
        if out.error is not None:
            return "failed"
        return "ok" if self.correct(q, out.value) else "wrong"


# --------------------------------------------------------------------------
# semantics

class Semantics(InProcess):
    """Consequence, truth tables and option readings, in process.

    matrix and relational do almost all the work; nd, fc and cli never
    run.  Early refutations (microseconds to a millisecond) set p50 and
    full 4**n scans set p90 and most of the wall time, so an engine that
    pays for all interpretations up front gains on p90 but shows its
    loss on p50.  Half the formulas repeat a subformula.
    """

    name = "semantics"
    deck_size = 100
    ENTRY_POINTS = [("cnl4", "parse", "formula"), ("cnl4", "parse_sequent", "formula"),
                    ("cnl4", "is_consequence", "matrix"), ("cnl4", "truth_table", "matrix"),
                    ("cnl4", "check_option_equivalence", "relational"),
                    ("cnl4", "rel_consequence", "relational")]
    setup_code = ("import cnl4\n"
                  "cnl4.is_consequence(cnl4.parse_sequent('p, q |- p & q'))")
    EARLY = 4 ** 3          # a refutation's first witness is within this many
    WORK = (20, 30)         # formula nodes per interpretation of a valid full scan

    # Full scans per deck, (kind, atoms), 30 in all.  p90 is the 10th
    # slowest of 100: three heavier scans sit above it and a band of
    # twelve 6-atom scans of similar cost (WORK) straddles it.
    FULL_SCANS = ([("valid", 7), ("valid", 7), ("late", 8)]
                  + [("valid", 6)] * 11 + [("late", 7)]
                  + [("valid", n) for n in (4, 5, 5)]
                  + [("late", n) for n in (4, 5, 6)]
                  + [("table", n) for n in (4, 5, 5)]
                  + [("equiv", n) for n in (3, 4, 4)]
                  + [("rel", n) for n in (4, 5, 5)])

    def build_deck(self, index: int) -> list[Query]:
        queries = [self.refutation(6 + k % 5, shared=k % 2 == 0) for k in range(70)]
        for k, (kind, n) in enumerate(self.FULL_SCANS):
            shared = k % 2 == 0
            if kind == "valid":
                queries.append(self.valid(n, shared))
            elif kind == "late":
                queries.append(self.late(n, shared))
            elif kind == "table":
                f = self.formula(n, shared)
                queries.append(Query("table", render(f), self.ref.rows(f)))
            elif kind == "equiv":
                f = self.formula(n, shared)
                queries.append(Query("equiv", render(f), 4 ** n))
            else:
                q = self.valid(n, shared) if k % 4 < 2 else self.late(n, shared)
                q.kind = "rel"
                q.meta["option"] = OPTION_IDS[(index + k) % 4]
                queries.append(q)
        return queries

    def formula(self, n: int, shared: bool):
        """A formula over ``n`` atoms with 5n to 6n nodes (evaluation cost
        is proportional to size)."""
        while True:
            f = gen.random_formula(self.rng, gen.atom_names(self.rng, n), 2 * n, shared)
            if 5 * n <= size(f) <= 6 * n:
                return f

    def _conseq(self, kind: str, premises, conclusion, verdict) -> Query:
        return Query(kind, render_sequent(premises, conclusion), verdict)

    def refutation(self, n: int, shared: bool) -> Query:
        while True:
            premises, conclusion = gen.random_sequent(
                self.rng, gen.atom_names(self.rng, n), self.rng.randint(1, 3),
                shared=shared)
            verdict = self.ref.decide(premises, conclusion, limit=self.EARLY)
            if verdict is not None and not verdict[0]:
                return self._conseq("refute", premises, conclusion, verdict)

    def valid(self, n: int, shared: bool) -> Query:
        return self._conseq("valid", *valid_sequent(self.rng, self.ref, n, shared, self.WORK))

    def late(self, n: int, shared: bool) -> Query:
        # the guard ~~x & ~x is designated only when x is j, the last
        # value of the witness order, and x is the first variable, so
        # every countermodel lies in the last quarter of the scan
        rng = self.rng
        names = gen.atom_names(rng, n)
        guard = ("&", ("~", ("~", names[0])), ("~", names[0]))
        while True:
            premises, conclusion = gen.random_sequent(rng, names, 1, shared=shared)
            premises = [guard, *premises]
            verdict = self.ref.decide(premises, conclusion)
            if not verdict[0]:
                return self._conseq("late", premises, conclusion, verdict)

    def execute(self, q: Query):
        cnl4 = self.cnl4
        if q.kind == "table":
            return cnl4.truth_table(cnl4.parse(q.arg))
        if q.kind == "equiv":
            f = cnl4.parse(q.arg)
            return [cnl4.check_option_equivalence(cnl4.OPTIONS[o], f) for o in OPTION_IDS]
        s = cnl4.parse_sequent(q.arg)
        if q.kind == "rel":
            return cnl4.rel_consequence(cnl4.OPTIONS[q.meta["option"]], s)
        return cnl4.is_consequence(s)

    def correct(self, q: Query, result) -> bool:
        if q.kind == "table":
            names, column = q.expect
            return (len(result) == len(column)
                    and all(list(inter) == names and value.value == want
                            for (inter, value), want in zip(result, column)))
        if q.kind == "equiv":
            return all(r.ok and r.checked == q.expect and not r.mismatches
                       for r in result)
        valid, witness, checked = q.expect
        if (result.valid, result.checked) != (valid, checked):
            return False
        if witness is None:
            return result.witness is None
        if q.kind == "rel":
            to_set = OPTION_MAPS[q.meta["option"]]
            want = [(k, TRUTH_SET_TEXT[to_set[v]]) for k, v in witness.items()]
            return [(k, str(v)) for k, v in result.witness.items()] == want
        return [(k, v.value) for k, v in result.witness.items()] == list(witness.items())


# --------------------------------------------------------------------------
# proof

class Proof(InProcess):
    """Proof search, and loading and checking JSON proof trees, in process.

    nd and formula.parse do the work (from_json_dict parses one
    conclusion per node); matrix is idle, so a matrix pre-check before
    search would show as new matrix time beside less nd.search time.
    """

    name = "proof"
    deck_size = 100
    ENTRY_POINTS = [("cnl4", "parse_sequent", "formula"), ("cnl4", "search", "nd"),
                    ("cnl4", "from_json_dict", "nd"), ("cnl4", "check", "nd")]
    setup_code = ("import cnl4\n"
                  "cnl4.search(cnl4.parse_sequent('p & q |- q | r'))")

    # Exhaustive searches per deck, 15 in all.  Every premise offers a
    # case split and the conclusion is a fresh atom, so the sequent is
    # matrix-invalid and the search must fail.  p90 is the 10th slowest
    # of 100: five depth-8 searches sit above it and ten depth-7 ones
    # straddle it.
    SEARCH_DEPTH = 6
    SPLITS = ("or", "or", "or", "nor")
    EXHAUSTIVE_DEPTHS = [8] * 5 + [7] * 10

    def build_deck(self, index: int) -> list[Query]:
        queries = [self.search_query(splits=k % 2) for k in range(60)]
        queries += [self.tree_query(corrupt=k % 5 == 0) for k in range(25)]
        queries += [self.exhaustive(depth) for depth in self.EXHAUSTIVE_DEPTHS]
        return queries

    def search_query(self, splits: int) -> Query:
        premises, goal = search_sequent(self.rng, self.SEARCH_DEPTH, splits)
        return Query("search", render_sequent(premises, goal), (premises, goal),
                     {"depth": self.SEARCH_DEPTH})

    def tree_query(self, corrupt: bool) -> Query:
        return Query("tree", *proof_tree(self.rng, corrupt, (200, 1500)))

    def exhaustive(self, depth: int) -> Query:
        rng = self.rng
        names = gen.atom_names(rng, 2 * len(self.SPLITS) + 1)
        premises = []
        for k, shape in enumerate(self.SPLITS):
            a, b = names[2 * k], names[2 * k + 1]
            premises.append(("|", a, b) if shape == "or" else ("~", ("|", a, b)))
        rng.shuffle(premises)
        conclusion = names[-1]
        verdict = self.ref.decide(premises, conclusion)
        if verdict[0]:
            raise AssertionError("exhaustive-search sequent must be invalid")
        return Query("exhaustive", render_sequent(premises, conclusion), verdict,
                     {"depth": depth})

    def execute(self, q: Query):
        cnl4 = self.cnl4
        if q.kind == "tree":
            return cnl4.check(cnl4.from_json_dict(q.arg))
        return cnl4.search(cnl4.parse_sequent(q.arg), q.meta["depth"])

    def judge(self, q: Query, out: Outcome) -> str:
        if q.kind == "tree" and q.expect[0] == "error":
            err = out.error
            if not isinstance(err, self.cnl4.DerivationError):
                return "wrong" if err is None else "failed"
            ok = err.path == q.expect[1] and err.rule.value == q.expect[2]
            return "ok" if ok else "wrong"
        return super().judge(q, out)

    def correct(self, q: Query, result) -> bool:
        if q.kind == "tree":
            _, open_set, goal = q.expect
            return ({program_tuple(f) for f in result.open_assumptions} == open_set
                    and program_tuple(result.conclusion) == goal)
        if q.kind == "exhaustive":
            return result is None
        premises, goal = q.expect
        return result is not None and derivation_ok(self.ref, result, premises, goal)


# --------------------------------------------------------------------------
# cli

class Cli(Workload):
    """One ``python3 -m cnl4.cli`` process per query, one at a time.

    The only workload where interpreter start-up, import and per-process
    caches count (every fc find or closure recomputes the closure).  It
    uses matrix cold on tiny inputs, so work moved into import time to
    help ``semantics`` shows here as a loss.  Inputs nested past the
    recursion limit crash today and are counted as failed queries.
    Commands start from ``spawner.py``, so their peak memory is their own.
    """

    name = "cli"
    deck_size = 25
    setup_code = "import cnl4.cli"

    DEEP = ("parse", "conseq", "truthtable")
    SEARCH_DEPTH = 6        # search-proof's default --depth

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        self.env = child_env(root)
        self.spawner = None
        self.files = 0
        self.golden = {}
        for option in OPTION_IDS:
            path = os.path.join(root, "src", "cnl4", "data", f"option_{option}.txt")
            with open(path, encoding="utf-8") as handle:
                self.golden[option] = [line.rstrip("\n") for line in handle if line.strip()]

    # -- generation ------------------------------------------------------

    def build_deck(self, index: int) -> list[Query]:
        option = OPTION_IDS[index % 4]
        return [
            self.q_parse(loose=True), self.q_parse(loose=False), self.q_parse(json_out=True),
            self.q_eval(), self.q_eval(option=option),
            self.q_truthtable(4), self.q_truthtable(5, json_out=True),
            self.q_conseq(valid=True), self.q_conseq(valid=False),
            self.q_conseq(valid=True, json_out=True),
            self.q_conseq(valid=False, json_out=True, option=option),
            self.q_countermodel(valid=False), self.q_countermodel(valid=True, json_out=True),
            self.q_check_proof(corrupt=False), self.q_check_proof(corrupt=True, json_out=True),
            self.q_search_proof(None, splits=1), self.q_search_proof(5, splits=0),
            Query("corpus", ["corpus"]),
            Query("fc-verify", ["fc", "verify"] + (["--format", "json"] if index % 2 else [])),
            Query("options-table", ["options", "table"]),
            Query("options-table", ["options", "table", "--option", option, "--format", "json"],
                  option),
            self.q_compare(4), self.q_compare(5, json_out=True, option=option),
            self.q_deep(self.DEEP[index % 3]),
            (self.q_fc_find() if index % 2 == 0
             else Query("fc-closure", ["fc", "closure", "--format", "json"])),
        ]

    def _formula(self, n: int):
        names = gen.atom_names(self.rng, n)
        return gen.random_formula(self.rng, names, 2 * n, shared=self.rng.random() < 0.5)

    def q_parse(self, loose: bool = False, json_out: bool = False) -> Query:
        f = self._formula(self.rng.randint(2, 5))
        text = _loose(f) if loose else render(f)
        argv = ["parse", text] + (["--format", "json"] if json_out else [])
        return Query("parse", argv, f, {"json": json_out})

    def q_eval(self, option: str | None = None) -> Query:
        f = self._formula(self.rng.randint(2, 5))
        env = {name: self.rng.choice(VALUES) for name in atoms([f])}
        argv = ["eval", render(f)] + [f"{k}={v}" for k, v in env.items()]
        if option:
            argv += ["--fde", "--option", option, "--format", "json"]
        return Query("eval", argv, (f, env, self.ref.value(f, env)), {"option": option})

    def q_truthtable(self, n: int, json_out: bool = False) -> Query:
        f = self._formula(n)
        argv = ["truthtable", render(f)] + (["--format", "json"] if json_out else [])
        return Query("truthtable", argv, (f, self.ref.rows(f)), {"json": json_out})

    def _sequent(self, valid: bool, n: int):
        if valid:
            premises, conclusion, verdict = valid_sequent(
                self.rng, self.ref, n, shared=self.rng.random() < 0.5)
        else:
            premises, conclusion, verdict = invalid_sequent(self.rng, self.ref, n)
        return render_sequent(premises, conclusion), verdict

    def q_conseq(self, valid: bool, json_out: bool = False, option: str | None = None) -> Query:
        text, verdict = self._sequent(valid, self.rng.randint(3, 5))
        argv = ["conseq", text]
        if json_out:
            argv += ["--format", "json"]
        if option:
            argv += ["--fde", "--option", option]
        return Query("conseq", argv, (text, verdict), {"json": json_out, "option": option})

    def q_countermodel(self, valid: bool, json_out: bool = False) -> Query:
        text, verdict = self._sequent(valid, self.rng.randint(3, 5))
        argv = ["countermodel", text] + (["--format", "json"] if json_out else [])
        return Query("countermodel", argv, (text, verdict), {"json": json_out})

    def _file(self, obj) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"proof{self.files}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path

    def q_check_proof(self, corrupt: bool, json_out: bool = False) -> Query:
        tree, expect = proof_tree(self.rng, corrupt, (20, 120))
        argv = ["check-proof", self._file(tree)] + (["--format", "json"] if json_out else [])
        return Query("check-proof", argv, expect, {"json": json_out})

    def q_search_proof(self, depth: int | None, splits: int) -> Query:
        premises, goal = search_sequent(self.rng, depth or self.SEARCH_DEPTH, splits)
        argv = ["search-proof", render_sequent(premises, goal), "--format", "json"]
        if depth is not None:
            argv += ["--depth", str(depth)]
        return Query("search-proof", argv, (premises, goal))

    def q_compare(self, n: int, json_out: bool = False, option: str | None = None) -> Query:
        f = self._formula(n)
        argv = ["options", "compare", render(f)]
        if json_out:
            argv += ["--format", "json"]
        if option:
            argv += ["--option", option]
        return Query("options-compare", argv, 4 ** n, {"json": json_out, "option": option})

    def q_deep(self, verb: str) -> Query:
        # nested past the interpreter's recursion limit
        if verb == "parse":
            text = "~" * 3000 + "p"
            return Query("deep", ["parse", text], text + "\n")
        if verb == "conseq":
            return Query("deep", ["conseq", "~" * 3000 + "p |- p"], "valid\n")
        text = " & ".join(["p"] * 5000)
        rows = "".join(f"{v} | {v}\n" for v in VALUES)
        return Query("deep", ["truthtable", text], f"p | {text}\n{rows}")

    def q_fc_find(self) -> Query:
        rng = self.rng
        option = rng.choice(OPTION_IDS)
        fde = "tbnf"
        mapping = {w: rng.choice(fde) for w in fde}
        target = ",".join(f"{w}:{mapping[w]}" for w in fde)
        argv = ["fc", "find", "--target", target, "--option", option]
        # the same table over matrix values, in canonical order
        to_fde = OPTION_MAPS[option]
        back = {w: v for v, w in to_fde.items()}
        table = tuple(back[mapping[to_fde[v]]] for v in VALUES)
        json_out = rng.random() < 0.5
        if json_out:
            argv += ["--format", "json"]
        return Query("fc-find", argv, table, {"json": json_out})

    # -- running -----------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed command, so later ones find the bytecode cached."""
        self.execute(Query("corpus", ["corpus"]))

    def command(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-m", "cnl4.cli", *argv]

    def execute(self, q: Query, command=None):
        """Run the query's command through ``spawner.py``, started on the
        first call, and return (exit code, stdout, stderr)."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "spawner.py")], cwd=self.root,
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.spawner.stdin.write(json.dumps((command or self.command)(q.arg)) + "\n")
        self.spawner.stdin.flush()
        return tuple(json.loads(self.spawner.stdout.readline()))

    def finish(self) -> float:
        if self.spawner is None:
            return 0.0
        out, _ = self.spawner.communicate()
        self.spawner = None
        return int(out) / 1024

    # -- judging -----------------------------------------------------------

    def judge(self, q: Query, out: Outcome) -> str:
        code, stdout, stderr = out.value
        if q.kind == "deep":
            if code == 0 and stdout == q.expect:
                return "ok"
            # a bounded refusal is a defined answer too
            if code == 3 and stderr.count("\n") == 1 and "Traceback" not in stderr:
                return "ok"
            return "failed" if "Traceback" in stderr else "wrong"
        if "Traceback" in stderr:
            return "failed"
        try:
            return "ok" if getattr(self, "_judge_" + q.kind.replace("-", "_"))(q, code, stdout) else "wrong"
        except (ValueError, KeyError, TypeError, IndexError):
            return "wrong"

    def _judge_parse(self, q, code, stdout):
        f = q.expect
        if not q.meta["json"]:
            return code == 0 and stdout == render(f) + "\n"
        return code == 0 and stdout == _json({"formula": render(f), "variables": atoms([f]),
                                              "tree": _tree(f)})

    def _judge_eval(self, q, code, stdout):
        f, env, value = q.expect
        option = q.meta["option"]
        if not option:
            return code == 0 and stdout == value + "\n"
        to_fde = OPTION_MAPS[option]
        return code == 0 and stdout == _json({
            "formula": render(f), "assignment": {k: to_fde[v] for k, v in env.items()},
            "value": to_fde[value]})

    def _judge_truthtable(self, q, code, stdout):
        f, (names, column) = q.expect
        rows = [self.ref.interpretation(names, k) for k in range(len(column))]
        if q.meta["json"]:
            want = _json({"formula": render(f), "variables": names,
                          "rows": [{"assignment": env, "value": v}
                                   for env, v in zip(rows, column)]})
        else:
            want = "".join([" ".join(names) + " | " + render(f) + "\n"]
                           + [" ".join(env.values()) + " | " + v + "\n"
                              for env, v in zip(rows, column)])
        return code == 0 and stdout == want

    def _assignment(self, witness: dict, option: str | None) -> dict:
        if option is None:
            return dict(witness)
        return {k: OPTION_MAPS[option][v] for k, v in witness.items()}

    def _judge_conseq(self, q, code, stdout):
        text, (valid, witness, checked) = q.expect
        if code != (0 if valid else 1):
            return False
        option = q.meta["option"]
        if q.meta["json"]:
            return stdout == _json({
                "sequent": text, "valid": valid, "checked": checked,
                "countermodel": None if valid else self._assignment(witness, option)})
        if valid:
            return stdout == "valid\n"
        return stdout == "invalid\ncountermodel: " + _pairs(self._assignment(witness, option)) + "\n"

    def _judge_countermodel(self, q, code, stdout):
        text, (valid, witness, _checked) = q.expect
        if code != (0 if valid else 1):
            return False
        if q.meta["json"]:
            return stdout == _json({"sequent": text, "countermodel": witness})
        return stdout == ("none (sequent is valid)\n" if valid else _pairs(witness) + "\n")

    def _judge_check_proof(self, q, code, stdout):
        if q.expect[0] == "error":
            _, path, rule = q.expect
            if code != 2:
                return False
            if not q.meta["json"]:
                return True
            error = json.loads(stdout)["error"]
            return error["path"] == list(path) and error["rule"] == rule
        _, open_set, goal = q.expect
        opened = sorted(render(f) for f in open_set)
        if q.meta["json"]:
            return code == 0 and stdout == _json({"ok": True, "conclusion": render(goal),
                                                  "open_assumptions": opened})
        return code == 0 and stdout == ("ok\nconclusion: " + render(goal) + "\nopen assumptions: "
                                        + (", ".join(opened) if opened else "(none)") + "\n")

    def _judge_search_proof(self, q, code, stdout):
        premises, goal = q.expect
        answer = json.loads(stdout)
        if not answer["found"]:
            return False
        import cnl4.nd
        d = cnl4.nd.from_json_dict(answer["derivation"])
        return code == 0 and derivation_ok(self.ref, d, premises, goal)

    def _judge_corpus(self, q, code, stdout):
        lines = stdout.splitlines()
        if code != 0 or len(lines) != 10:
            return False
        for line in lines:
            _name, _, sequent = line.partition(": ")
            left, _, right = sequent.partition("|-")
            premises = [ref_parse(p) for p in left.split(",") if p.strip()]
            if not self.ref.decide(premises, ref_parse(right))[0]:
                return False
        return True

    def _judge_fc_verify(self, q, code, stdout):
        if "--format" in q.arg:
            report = json.loads(stdout)
            checks = [(c["term"], c["argument"], c["expected"], c["actual"]) for c in report["checks"]]
            ok = report["ok"]
        else:
            lines = stdout.splitlines()
            checks = []
            for line in lines[:-2]:
                call, _, rest = line.partition(" = ")
                actual, _, rest = rest.partition(", expected ")
                expected = rest.split(":")[0]
                checks.append((call[:-3], call[-2], expected, actual))
            ok = lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
        if code != 0 or not ok or len(checks) != 32:
            return False
        for term, arg, expected, actual in checks:
            kind, _, value = term.partition("_")
            want = (("1" if arg == value else "0") if kind == "delta" else value)
            if expected != want or actual != want:
                return False
        return True

    def _judge_options_table(self, q, code, stdout):
        if q.expect:
            return code == 0 and stdout == _json({q.expect: self.golden[q.expect]})
        blocks = [[f"option {o}", *self.golden[o]] for o in OPTION_IDS]
        return code == 0 and stdout == "\n\n".join("\n".join(b) for b in blocks) + "\n"

    def _judge_options_compare(self, q, code, stdout):
        checked = q.expect
        ids = [q.meta["option"]] if q.meta["option"] else list(OPTION_IDS)
        if q.meta["json"]:
            return code == 0 and stdout == _json([{"option": o, "ok": True, "checked": checked,
                                                   "mismatches": []} for o in ids])
        return code == 0 and stdout == "".join(f"{o}: ok ({checked} interpretations)\n" for o in ids)

    def _term_table(self, term: str) -> tuple:
        f = ref_parse(term)
        if set(atoms([f])) - {"x"}:
            raise ValueError(f"term mentions atoms other than x: {term}")
        return tuple(self.ref.value(f, {"x": v}) for v in VALUES)

    def _judge_fc_find(self, q, code, stdout):
        table = q.expect
        shown = ",".join(f"{a}:{b}" for a, b in zip(VALUES, table))
        if q.meta["json"]:
            answer = json.loads(stdout)
            term = answer["term"]
            ok = answer["found"] and answer["target"] == shown
        else:
            term, table_line = stdout.splitlines()
            ok = table_line == f"table: {shown}"
        return code == 0 and ok and self._term_table(term) == table

    def _judge_fc_closure(self, q, code, stdout):
        answer = json.loads(stdout)
        if code != 0 or answer["size"] != 256 or not answer["complete"]:
            return False
        seen = set()
        for entry in answer["witnesses"]:
            table = self._term_table(entry["term"])
            if entry["table"] != ",".join(f"{a}:{b}" for a, b in zip(VALUES, table)):
                return False
            seen.add(table)
        return len(seen) == 256


def _loose(f) -> str:
    """Fully parenthesised rendering, for parse inputs."""
    if isinstance(f, str):
        return f
    if f[0] == "~":
        return "~" + _loose(f[1])
    return f"({_loose(f[1])} {f[0]} {_loose(f[2])})"


def _tree(f) -> dict:
    if isinstance(f, str):
        return {"type": "atom", "name": f}
    if f[0] == "~":
        return {"type": "neg", "body": _tree(f[1])}
    return {"type": "and" if f[0] == "&" else "or", "left": _tree(f[1]), "right": _tree(f[2])}


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pairs(assignment: dict) -> str:
    return ", ".join(f"{k}={assignment[k]}" for k in sorted(assignment))


WORKLOADS = {w.name: w for w in (Semantics, Proof, Cli)}
