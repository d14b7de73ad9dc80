"""The CLI's exit-code contract, fuzzed with seeded command lines.

About a thousand command lines, built from a small grammar over all 13
leaf verbs, run through ``run`` in process.  Formulas and sequents come
from the ``helpers`` generators or are junk text; proof files are valid,
corrupted, malformed JSON or missing; bindings, ``--target`` tables and
the flags take good values mostly and bad ones sometimes.  Every run must
keep the contract that the golden cases pin one by one:

- the exit code is 0-3 (4 is an internal error, a bug);
- no output holds a traceback or an internal error;
- exits 0 and 1 write nothing on stderr;
- exit 2 writes nothing on stderr, except text ``check-proof``, which
  writes one ``check failed: `` line;
- exit 3 writes nothing on stdout and one stderr line that starts
  ``cnl4: ``, or argparse's usage (a line and its indented continuations)
  and then one ``cnl4...: error:`` line.

The seed is fixed, so every run sends the same command lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from cnl4.cli import _VERBS, run
from cnl4.formula import ParseError, format_formula, format_sequent, parse, variables
from cnl4.nd import Rule, hyp, to_json_dict
from cnl4.prove import search
from helpers import and_elim_chain, random_formula, random_sequent, reference_corpus

SEED = 11
RUNS = 1000
ATOMS = ("p", "q", "r", "s")

#: Each leaf verb with its weight in the draw: ``fc closure`` recomputes the
#: closure on every run (about 28 ms), so it is drawn a few times only.
VERBS = {
    ("parse",): 10, ("eval",): 12, ("truthtable",): 10, ("conseq",): 12,
    ("countermodel",): 8, ("check-proof",): 16, ("search-proof",): 14, ("corpus",): 3,
    ("fc", "verify"): 3, ("fc", "closure"): 0.5, ("fc", "find"): 8,
    ("options", "table"): 4, ("options", "compare"): 8,
}

#: The flags each verb takes in the CLI's table, but ``--format``, which every
#: verb takes, and ``fc find``'s ``--target``, which ``command_line`` draws.
FLAGS = {tuple(path.split()): tuple(name[2:] for name in arguments if name.startswith("--")
                                    and name not in ("--format", "--target"))
         for path, _, _, arguments in _VERBS if arguments is not None}

#: Values for each flag: good ones first, then bad ones, with the chance of a bad one.
FLAG_VALUES = {
    "format": (["text", "json"], ["xml", ""], 0.02),
    "cap": ([str(n) for n in range(1, 12)], ["0", "-1", "x", "1.5"], 0.15),
    "option": (["O1", "O2", "O3", "O4"], ["O5", "o1"], 0.05),
    "depth": ([str(n) for n in range(1, 9)], ["0", "-2", "x", "201"], 0.1),
}

JUNK = "pqs~&|(),- xZ9_#\té∧"


def junk(rng: random.Random) -> str:
    return "".join(rng.choice(JUNK) for _ in range(rng.randint(0, 12)))


def formula_text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.85:
        return format_formula(random_formula(rng, 3, ATOMS))
    if r < 0.95:
        return junk(rng)
    return rng.choice(["~" * 200 + "p", "~" * 201 + "p", "", "p |- q", "(p", "P", "p q"])


def sequent_text(rng: random.Random) -> str:
    if rng.random() < 0.9:
        return format_sequent(random_sequent(rng, 3, 2, ATOMS[:3]))
    return rng.choice([junk(rng), "p |- q |- r", "p, |- q", "|-", "p -| q"])


def bindings(rng: random.Random, formula: str) -> list[str]:
    try:
        names = variables(parse(formula))
    except ParseError:
        names = list(ATOMS[:2])
    pairs = [f"{name}={rng.choice('1ij0')}" for name in names]
    if rng.random() < 0.15:
        bad = rng.choice(["drop", "twice", "value", "name", "shape"])
        if bad == "drop":
            pairs.pop(rng.randrange(len(pairs)))
        elif bad == "twice":
            pairs.append(rng.choice(pairs))
        elif bad == "value":
            pairs[0] = pairs[0].partition("=")[0] + "=" + rng.choice(["2", "t", ""])
        elif bad == "name":
            pairs.append("zz=1")
        else:
            pairs.append(rng.choice(["p", "=1", "p:1"]))
    return pairs


def target(rng: random.Random) -> str:
    entries = [f"{w}:{rng.choice('tbnf')}" for w in "tbnf"]
    rng.shuffle(entries)
    if rng.random() < 0.2:
        bad = rng.choice(["drop", "twice", "value", "shape"])
        if bad == "drop":
            entries.pop()
        elif bad == "twice":
            entries.append(entries[0])
        elif bad == "value":
            entries[0] = entries[0][:2] + "x"
        else:
            entries[0] = entries[0].replace(":", "")
    return ",".join(entries)


def valid_derivation(rng: random.Random):
    if rng.random() < 0.5:
        return rng.choice(reference_corpus())[1]
    while True:
        found = search(random_sequent(rng, 3, 2, ATOMS[:3]), 6)
        if found is not None:
            return found


def corrupt(rng: random.Random, d):
    """``d`` with its root broken in one of the ways a hand-edited file breaks."""
    kind = rng.choice(["conclusion", "rule", "premises", "label"])
    if kind == "conclusion":
        return d._replace(conclusion=random_formula(rng, 2, ATOMS))
    if kind == "rule":
        return d._replace(rule=rng.choice(list(Rule)))
    if kind == "premises":
        return d._replace(premises=d.premises[::-1] or (hyp("a", random_formula(rng, 1)),))
    return d._replace(label=rng.choice([None, "", "h9"]))


def proof_file(rng: random.Random, path: Path) -> str:
    r = rng.random()
    if r < 0.1:
        return str(path.parent / "missing.json")
    if r < 0.12:
        return str(path.parent)  # a directory
    if r < 0.45:
        text = json.dumps(to_json_dict(valid_derivation(rng)))
    elif r < 0.75:
        text = json.dumps(to_json_dict(corrupt(rng, valid_derivation(rng))))
    else:
        valid = json.dumps(to_json_dict(valid_derivation(rng)))
        text = rng.choice([valid[: rng.randrange(len(valid))], "[" * 5000, "[1, 2]",
                           '{"rule": "Nope", "conclusion": "p"}', '{"rule": "Hyp"}',
                           and_elim_chain(100), and_elim_chain(101), "\udcff\udcfe"])
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(path)


def flag(rng: random.Random, name: str) -> list[str]:
    good, bad, chance = FLAG_VALUES[name]
    return [f"--{name}", rng.choice(bad if rng.random() < chance else good)]


def command_line(rng: random.Random, tmp_path: Path, i: int) -> tuple[tuple[str, ...], list[str]]:
    """A verb, drawn by weight, and a command line for it."""
    verb = rng.choices(list(VERBS), weights=list(VERBS.values()))[0]
    argv = list(verb)
    if verb in {("parse",), ("eval",), ("truthtable",), ("options", "compare")}:
        argv.append(formula_text(rng))
    elif verb in {("conseq",), ("countermodel",), ("search-proof",)}:
        argv.append(sequent_text(rng))
    elif verb == ("check-proof",):
        argv.append(proof_file(rng, tmp_path / f"proof{i}.json"))
    if verb == ("eval",):
        argv += bindings(rng, argv[1])
    if verb == ("fc", "find"):
        argv += ["--target", target(rng)]
    for name in FLAGS.get(verb, ()):
        if name == "fde":
            argv += ["--fde"] * (rng.random() < 0.3)
        elif rng.random() < 0.6:
            argv += flag(rng, name)
    if rng.random() < 0.7:
        argv += flag(rng, "format")
    if rng.random() < 0.03:  # a stray flag or word, or a request for help
        argv.insert(rng.randrange(1, len(argv) + 1),
                    rng.choice(["--nope", "--depth", "--fde", "extra", "--help"]))
    return verb, argv


def writes_json(argv: list[str]) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


def assert_contract(argv: list[str], code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2, 3)
    for text in (out, err):
        assert "Traceback" not in text and "internal error" not in text
    lines = err.splitlines()
    if code in (0, 1):
        assert err == ""
    elif code == 2:
        if argv[0] == "check-proof" and not writes_json(argv):
            assert len(lines) == 1 and lines[0].startswith("check failed: ")
        else:
            assert err == ""
    else:
        assert out == ""
        assert err.endswith("\n")
        if err.startswith("usage: "):
            assert all(line[:1].isspace() for line in lines[1:-1])
            assert lines[-1].startswith("cnl4") and ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("cnl4: ")


def test_the_draw_weighs_every_leaf_verb_of_the_table() -> None:
    assert list(VERBS) == list(FLAGS)  # FLAGS has a key per leaf verb, in table order


def test_every_command_line_keeps_the_exit_contract(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CNL4_CAP", raising=False)
    rng = random.Random(SEED)
    verbs, codes = Counter(), Counter()
    for i in range(RUNS):
        verb, argv = command_line(rng, tmp_path, i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        try:
            assert_contract(argv, code, out.getvalue(), err.getvalue())
        except AssertionError:
            pytest.fail(f"run({argv!r}) exited {code} with stdout {out.getvalue()[:300]!r} "
                        f"and stderr {err.getvalue()[:300]!r}")
        verbs[verb] += 1
        codes[code] += 1
    # the draw reaches every verb and every code, and is mostly well formed
    assert len(verbs) == len(VERBS), verbs
    assert set(codes) == {0, 1, 2, 3}, codes
    assert codes[3] < RUNS / 2, codes
