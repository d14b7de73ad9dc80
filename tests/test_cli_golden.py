"""The whole CLI contract, replayed from a golden file.

``tests/data/cli_golden.json`` records, for every verb and subverb in
text and JSON, every ``--help`` and the error paths of each verb, the
exit code, stdout and stderr of ``run(argv)``.  A case may set
environment variables (``CNL4_CAP``) and write input files into the
working directory first.  Help text is formatted for ``COLUMNS=80``.
The module also checks that the parser a run builds for its verb alone
reads every golden and fuzzed command line as the whole tree does.

The golden file is written by this module's ``__main__`` block and is
never edited by hand::

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import test_cli_fuzz as fuzz
from cnl4.cli import _VERBS, build_parser, run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def replay(case: dict, workdir: Path, mp: pytest.MonkeyPatch) -> dict:
    """Run one case in ``workdir`` and return its code, stdout and stderr."""
    mp.chdir(workdir)
    mp.setenv("COLUMNS", "80")
    mp.delenv("CNL4_CAP", raising=False)
    for name, value in case.get("env", {}).items():
        mp.setenv(name, value)
    for name, text in case.get("files", {}).items():
        # surrogate escapes carry bytes that are not UTF-8
        (workdir / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(case["argv"]))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict]:
    # absent only while the file is first written; the coverage test fails then
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def _case_id(case: dict) -> str:
    env = " ".join(f"{k}={v}" for k, v in case.get("env", {}).items())
    return " ".join(filter(None, [env, *case["argv"]]))


@pytest.mark.parametrize("case", _load(), ids=_case_id)
def test_cli_matches_golden(case, tmp_path, monkeypatch) -> None:
    got = replay(case, tmp_path, monkeypatch)
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


def _command_paths(parser: argparse.ArgumentParser,
                   prefix: tuple[str, ...] = ()) -> list[tuple[tuple[str, ...], bool]]:
    """Every command path below ``parser``, each with whether it is a leaf verb."""
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    paths = [(prefix, not subparsers)]
    for action in subparsers:
        for name, sub in action.choices.items():
            paths += _command_paths(sub, (*prefix, name))
    return paths


def test_golden_covers_every_verb() -> None:
    """Every command path has a --help case; every leaf verb also runs in
    text and in JSON."""
    cases = [case["argv"] for case in _load()]
    paths = _command_paths(build_parser())
    assert [" ".join(path) for path, _ in paths[1:]] == [row[0] for row in _VERBS]
    for path, leaf in paths:
        assert [*path, "--help"] in cases, path
        if leaf:
            runs = [argv for argv in cases
                    if tuple(argv[:len(path)]) == path and "--help" not in argv]
            assert any("json" in argv for argv in runs), path
            assert any("--format" not in argv for argv in runs), path


# ---------------------------------------------------------------------------
# A run builds only its verb's parser, and it answers as the whole tree does

LEAVES = [row[0].split() for row in _VERBS if row[3] is not None]


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_a_leaf_verb_builds_only_its_own_parser(path) -> None:
    built = [p for p, _ in _command_paths(build_parser([*path, "--format", "json"]))]
    assert built == [tuple(path[:i]) for i in range(len(path) + 1)]  # the root, its group, it


@pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"], ["fc"],
                                  ["fc", "frobnicate"], ["options"]], ids=" ".join)
def test_input_that_invokes_no_leaf_verb_builds_the_whole_tree(argv) -> None:
    assert _command_paths(build_parser(argv)) == _command_paths(build_parser())


def _parsed(parser: argparse.ArgumentParser, argv: list[str]) -> object:
    """The namespace ``parser`` reads from ``argv``, or how it exits and what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_the_partial_parser_answers_as_the_whole_tree(tmp_path, monkeypatch) -> None:
    """Over every golden and every fuzzed command line."""
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(fuzz.SEED)
    fuzzed = [fuzz.command_line(rng, tmp_path, i)[1] for i in range(fuzz.RUNS)]
    whole = build_parser()
    for argv in [case["argv"] for case in _load()] + fuzzed:
        assert _parsed(build_parser(argv), argv) == _parsed(whole, argv), argv


# ---------------------------------------------------------------------------
# The cases, as written to the golden file

PROOF_OK = {
    "rule": "NOrE", "conclusion": "~p | ~q", "discharge": ["h1", "h2"],
    "premises": [
        {"rule": "Hyp", "conclusion": "~(p | q)", "premises": [], "label": "a"},
        {"rule": "OrI_L", "conclusion": "~p | ~q", "premises": [
            {"rule": "Hyp", "conclusion": "~p", "premises": [], "label": "h1"}]},
        {"rule": "OrI_R", "conclusion": "~p | ~q", "premises": [
            {"rule": "Hyp", "conclusion": "~q", "premises": [], "label": "h2"}]},
    ],
}
PROOF_NN1 = {
    "rule": "NN1", "conclusion": "q",
    "premises": [
        {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h1"},
        {"rule": "Hyp", "conclusion": "~p", "premises": [], "label": "h2"},
    ],
}
PROOF_ANDI = {
    "rule": "AndI", "conclusion": "p | q",
    "premises": [
        {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h1"},
        {"rule": "Hyp", "conclusion": "q", "premises": [], "label": "h2"},
    ],
}
PROOF_FILES = {
    "ok.json": json.dumps(PROOF_OK),
    "closed.json": json.dumps({"rule": "NN2", "conclusion": "p | ~~p", "premises": []}),
    "nn1.json": json.dumps(PROOF_NN1),
    "andi.json": json.dumps(PROOF_ANDI),
    "garbage.json": "{not json",
    "zap.json": json.dumps({"rule": "Zap", "conclusion": "p", "premises": []}),
    "number.json": json.dumps({"rule": "Hyp", "label": "a", "conclusion": 5}),
    "unparsable.json": json.dumps({"rule": "Hyp", "label": "a", "conclusion": "p &"}),
    "nested.json": "[" * 2000 + "]" * 2000,
    "latin1.json": "\udcff",
    "list.json": "[]",
}


def _cases() -> list[dict]:
    text_json = ([], ["--format", "json"])
    cases: list[dict] = []

    def add(*argv: str, env: dict | None = None, files: dict | None = None) -> None:
        case: dict = {"argv": list(argv)}
        if env:
            case["env"] = env
        if files:
            case["files"] = files
        cases.append(case)

    for path, _ in _command_paths(build_parser()):
        add(*path, "--help")
    add()
    add("frobnicate")
    add("fc")
    add("options")
    add("fc", "frobnicate")
    add("parse", "p", "--format", "yaml")
    # settings are checked before the verb reads its input
    add("conseq", "p |-", "--cap", "0")
    add("search-proof", "p |-", "--depth", "0")
    add("truthtable", "p &", env={"CNL4_CAP": "many"})

    for fmt in text_json:
        add("parse", "p&(q|r)", *fmt)
        add("parse", "~p & q | r", *fmt)
        add("parse", "p & (q", *fmt)
        add("parse", "p |", *fmt)
        add("eval", "~p", "p=1", *fmt)
        add("eval", "p & ~q", "p=i", "q=0", *fmt)
        add("eval", "p", "p=i", "--fde", *fmt)
        add("eval", "p", "p=i", "--fde", "--option", "O2", *fmt)
        add("eval", "~p | q", "p=j", "q=0", "--fde", "--option", "O4", *fmt)
        add("eval", "p", "p=i", "--option", "O3", *fmt)
        add("eval", "p", "p=x", *fmt)
        add("eval", "p", "p", *fmt)
        add("eval", "p", "=1", *fmt)
        add("eval", "p & q", "p=1", *fmt)
        add("eval", "p", "p=1", "--option", "O9", *fmt)
        add("truthtable", "p | ~~p", *fmt)
        add("truthtable", "p & q", *fmt)
        add("truthtable", "~(p & q)", "--fde", "--option", "O3", *fmt)
        add("truthtable", "p & q", "--cap", "1", *fmt)
        add("truthtable", "p", "--cap", "0", *fmt)
        add("conseq", "q |- p | ~~p", *fmt)
        add("conseq", "q |- p | ~p", *fmt)
        add("conseq", "p & ~p |- q", *fmt)
        add("conseq", "p & ~p |- q", "--fde", *fmt)
        add("conseq", "~~p |- p", "--fde", "--option", "O2", *fmt)
        add("conseq", "|- p | ~~p", *fmt)
        add("conseq", "p, q |- p & q", "--cap", "1", *fmt)
        add("conseq", "p |- p", "--cap", "-1", *fmt)
        add("conseq", "p |-", *fmt)
        add("countermodel", "~~p |- p", *fmt)
        add("countermodel", "p |- p", *fmt)
        add("countermodel", "~~p |- p", "--fde", "--option", "O2", *fmt)
        add("countermodel", "p, q |- r", "--fde", "--option", "O4", *fmt)
        add("countermodel", "p, q |- r", "--cap", "2", *fmt)
        add("search-proof", "~p, ~q |- ~(p & q)", *fmt)
        add("search-proof", "~(p | q) |- ~p | ~q", *fmt)
        add("search-proof", "p | q |- q | p", "--depth", "4", *fmt)
        add("search-proof", "~~p |- p", "--depth", "3", *fmt)
        add("search-proof", "p |- q", "--depth", "8", *fmt)
        add("search-proof", "p & q |- q & p", "--depth", "1", *fmt)
        add("search-proof", "p |- p", "--depth", "0", *fmt)
        add("search-proof", "p |- p", "--depth", "x", *fmt)
        add("search-proof", "p |- ", *fmt)
        add("corpus", *fmt)
        add("fc", "verify", *fmt)
        add("fc", "closure", *fmt)
        add("fc", "find", "--target", "t:t,b:b,n:n,f:f", *fmt)
        add("fc", "find", "--target", "t:f,b:b,n:n,f:t", *fmt)
        add("fc", "find", "--target", "t:t,b:b,n:n,f:f", "--option", "O3", *fmt)
        add("fc", "find", "--target", "t:n,b:n,n:n,f:n", "--option", "O2", *fmt)
        add("fc", "find", "--target", "t:t,b:b", *fmt)
        add("fc", "find", "--target", "t=t,b:b,n:n,f:f", *fmt)
        add("fc", "find", "--target", "t:x,b:b,n:n,f:f", *fmt)
        add("fc", "find", *fmt)
        add("options", "table", *fmt)
        add("options", "table", "--option", "O3", *fmt)
        add("options", "compare", "~(p & q)", *fmt)
        add("options", "compare", "~~p", "--option", "O2", *fmt)
        add("options", "compare", "p | q & ~r", "--option", "O4", *fmt)
        add("options", "compare", "p & q", "--cap", "1", *fmt)
        for name in PROOF_FILES:
            add("check-proof", name, *fmt, files={name: PROOF_FILES[name]})
        add("check-proof", "missing.json", *fmt)
        add("check-proof", ".", *fmt)

    # the variable cap from the environment, on the verbs that take --cap
    for argv in (["truthtable", "p & q"], ["conseq", "p |- q"],
                 ["countermodel", "p |- q"], ["options", "compare", "p & q"]):
        for value in ("1", "5", "0", "many", ""):
            add(*argv, env={"CNL4_CAP": value})
        add(*argv, "--cap", "5", env={"CNL4_CAP": "1"})
        add(*argv, "--cap", "5", env={"CNL4_CAP": "many"})
    return cases


if __name__ == "__main__":
    import tempfile

    results = []
    for case in _cases():
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            results.append({**case, **replay(case, Path(tmp), mp)})
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
