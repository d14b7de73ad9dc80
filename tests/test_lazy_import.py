"""Which layers ``import cnl4``, each CLI verb and the proof layer load,
and what they keep.

``cnl4`` imports a layer when one of its names is first read, and the CLI
imports ``matrix``, ``nd``, ``prove``, ``fc`` and ``relational`` only for
the verbs that use them.  Search lives in ``prove``, which only
``search-proof`` and a first read of ``search`` load.  ``nd`` imports
``matrix`` only when it first decides a sequent: at a search's first case
split and in ``soundness_check``, so ``check-proof``, ``corpus`` and a
search that never splits load no semantics, and ``search-proof`` loads it
at a split or for a miss.
Module loading is checked in fresh interpreters, one per case, with no
bytecode written.  The public surface and every name the benchmark tracer
wraps must resolve as they did with eager imports, and a name read first
on ``cnl4.cli`` loads only its own layer.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cnl4
from cnl4 import cli, nd, prove, relational

SRC = str(Path(cnl4.__file__).parents[1])
TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"
#: What every CLI command loads, and what ``matrix`` brings with it.
BASE = {"cnl4.cli", "cnl4.formula"}
MATRIX = {"cnl4.matrix", "cnl4.engine"}
#: What ``search-proof`` loads besides ``matrix``.
PROOF_SEARCH = {"cnl4.nd", "cnl4.prove"}

#: ``cnl4.__all__`` as the eager package listed it.
PUBLIC_NAMES = [
    "And", "Atom", "Formula", "Neg", "Or", "ParseError", "Sequent",
    "format_formula", "format_sequent", "parse", "parse_sequent",
    "sequent_variables", "substitute", "variables",
    "AND", "CANONICAL_ORDER", "DESIGNATED", "NEG", "OR", "WITNESS_ORDER",
    "CapExceededError", "UnboundVariableError", "Value", "Verdict",
    "conj", "countermodel", "disj", "evaluate", "interpretations",
    "is_consequence", "is_designated", "neg", "truth_table",
    "FDE_ORDER", "OPTIONS", "EquivalenceReport", "FdeValue",
    "OptionReading", "TruthSet", "check_option_equivalence",
    "correspond", "get_option", "option_table_lines", "option_tables",
    "rel_consequence", "rel_designated", "rel_eval",
    "CheckedSequent", "CorpusEntry", "Derivation", "DerivationError",
    "ProofFormatError", "Rule", "check", "corpus", "from_json_dict",
    "render_derivation", "search", "soundness_check", "to_json_dict",
    "BinaryTable", "ClosureResult", "DeltaCReport",
    "ReservedVariableError", "SlupeckiReport", "UnaryTable",
    "find_term_for_unary", "fn_of_unary_term", "is_essentially_binary",
    "slupecki_check", "unary_clone_closure", "verify_delta_c",
]
SUBMODULES = ("formula", "engine", "matrix", "relational", "nd", "prove", "fc")


def fresh(code: str, *args: str) -> object:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_RUN_VERB = """
import contextlib, io, json, sys
from cnl4 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cnl4."))]))
"""


def test_import_cnl4_loads_no_layer() -> None:
    loaded = fresh("import cnl4, json, sys\n"
                   "print(json.dumps([m for m in sys.modules if m.startswith('cnl4.')]))")
    assert loaded == []


@pytest.mark.parametrize(("argv", "layers"), [
    (["parse", "p & q"], set()),
    (["conseq", "p, q |- p & q"], MATRIX),
    (["truthtable", "p | ~p"], MATRIX),
    (["check-proof", "{proof}"], {"cnl4.nd"}),
    (["search-proof", "p & q |- q & p"], PROOF_SEARCH),
    (["fc", "verify"], MATRIX | {"cnl4.fc"}),
    (["options", "table"], MATRIX | {"cnl4.relational"}),
    (["conseq", "p |- q", "--fde"], MATRIX | {"cnl4.relational"}),
    (["eval", "p & q", "p=1", "q=j"], MATRIX),
    (["countermodel", "p |- q"], MATRIX),
    (["corpus"], {"cnl4.nd"}),
    (["fc", "closure"], MATRIX | {"cnl4.fc"}),
    (["fc", "find", "--target", "t:f,b:b,n:n,f:t"], MATRIX | {"cnl4.fc", "cnl4.relational"}),
    (["options", "compare", "p | ~p"], MATRIX | {"cnl4.relational"}),
    (["search-proof", "a | b |- b | a"], MATRIX | PROOF_SEARCH),  # splits a | b
    (["search-proof", "p |- q"], MATRIX | PROOF_SEARCH),  # a miss, told from an invalid sequent
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_verb_loads_only_its_layers(tmp_path, argv, layers) -> None:
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps({"rule": "Hyp", "label": "h1", "conclusion": "p"}))
    code, loaded = fresh(_RUN_VERB, *(a.format(proof=proof) for a in argv))
    assert code in (0, 1)
    assert set(loaded) == BASE | layers


@pytest.mark.parametrize("argv", [["--help"], ["conseq", "--help"], ["conseq"],
                                  ["no-such-verb"], ["truthtable", "p", "--cap", "x"]],
                         ids=" ".join)
def test_help_and_usage_errors_load_no_layer(argv) -> None:
    code, loaded = fresh(_RUN_VERB, *argv)
    assert code == (0 if "--help" in argv else 3)
    assert set(loaded) == BASE


# ---------------------------------------------------------------------------
# The package surface

def test_all_is_unchanged() -> None:
    assert cnl4.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object() -> None:
    modules = [getattr(cnl4, name) for name in SUBMODULES]
    for name in cnl4.__all__:
        owners = [m for m in modules if name in vars(m)]
        assert owners, name
        assert all(getattr(cnl4, name) is vars(m)[name] for m in owners), name


def test_star_import_binds_every_public_name() -> None:
    namespace: dict = {}
    exec("from cnl4 import *", namespace)
    assert set(cnl4.__all__) <= set(namespace)


def test_submodules_resolve_after_a_bare_import() -> None:
    found = fresh("import cnl4, json\n"
                  f"print(json.dumps([getattr(cnl4, m).__name__ for m in {SUBMODULES!r}]))")
    assert found == [f"cnl4.{m}" for m in SUBMODULES]


def test_unknown_name_raises_attribute_error_naming_it() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        cnl4.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_dir_lists_every_public_name() -> None:
    assert set(cnl4.__all__) <= set(dir(cnl4))


# ---------------------------------------------------------------------------
# The names the benchmark tracer wraps

def _traced_entry_points() -> dict[str, list[str]]:
    """``PROGRAM_ENTRY_POINTS``'s attribute names, by module."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [entries] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "PROGRAM_ENTRY_POINTS" for t in node.targets)]
    by_module: dict[str, list[str]] = {}
    for module, attr, _ in entries:
        by_module.setdefault(module, []).append(attr)
    return by_module


def test_tracer_names_resolve_on_a_fresh_cli() -> None:
    # each module in its own fresh interpreter, so no other module's
    # imports load a layer first (nd's matrix names resolve on first read)
    entry_points = _traced_entry_points()
    assert set(entry_points) == {"cnl4.cli", "cnl4.matrix", "cnl4.fc", "cnl4.nd"}
    assert {"is_consequence", "check", "search", "verify_delta_c",
            "option_table_lines"} <= set(entry_points["cnl4.cli"])
    assert "is_consequence" in entry_points["cnl4.nd"]
    for module, names in entry_points.items():
        resolved = fresh("import importlib, json, sys\n"
                         "module = importlib.import_module(sys.argv[1])\n"
                         "print(json.dumps([callable(getattr(module, n)) for n in sys.argv[2:]]))",
                         module, *names)
        assert resolved == [True] * len(names), module


# ---------------------------------------------------------------------------
# Each name the CLI binds, read first

_READ_CLI_NAME = """
import importlib, json, sys
from cnl4 import cli
name, layer = sys.argv[1:]
value = getattr(cli, name)
loaded = sorted(m for m in sys.modules if m.startswith("cnl4."))
print(json.dumps([value is getattr(importlib.import_module(f"cnl4.{layer}"), name), loaded]))
"""

#: A name from each of the CLI's groups, its defining layer and what else
#: reading it loads: ``matrix`` brings ``engine``, ``fc`` and ``relational``
#: bring ``matrix``, and ``prove`` brings ``nd``.
CLI_NAMES = [
    ("Atom", "formula", set()),
    ("truth_table", "matrix", MATRIX),
    ("DEFAULT_CAP", "matrix", MATRIX),
    ("truth_rows", "matrix", MATRIX),
    ("get_option", "relational", MATRIX | {"cnl4.relational"}),
    ("DerivationError", "nd", {"cnl4.nd"}),
    ("to_json_dict", "nd", {"cnl4.nd"}),
    ("derivation_sequent", "nd", {"cnl4.nd"}),
    ("search", "prove", PROOF_SEARCH),
    ("verify_delta_c", "fc", MATRIX | {"cnl4.fc"}),
]


def test_cli_names_cover_every_group() -> None:
    named = {name for name, _, _ in CLI_NAMES}
    assert all(named & set(names) for _, names in cli._GROUPS)


@pytest.mark.parametrize(("name", "layer", "layers"), CLI_NAMES, ids=[n for n, *_ in CLI_NAMES])
def test_a_cli_name_is_its_layers_object_and_loads_only_that_layer(name, layer, layers) -> None:
    same, loaded = fresh(_READ_CLI_NAME, name, layer)
    assert same
    assert set(loaded) == BASE | layers


_COUNT_CALLS = """
import contextlib, io, json
from cnl4 import cli
counts = {}
def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper
for name in ("is_consequence", "check", "search", "verify_delta_c", "option_table_lines"):
    setattr(cli, name, counting(name, getattr(cli, name)))
proof = json.dumps({"rule": "Hyp", "label": "h1", "conclusion": "p"})
with open("proof.json", "w") as handle:
    handle.write(proof)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in (["conseq", "p |- p"], ["check-proof", "proof.json"],
                                        ["search-proof", "p |- p"],
                                        ["fc", "verify"], ["options", "table"])]
print(json.dumps([codes, counts]))
"""


def test_verbs_call_functions_wrapped_before_their_layer_loads(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    codes, counts = fresh(_COUNT_CALLS)
    assert codes == [0, 0, 0, 0, 0]
    assert counts == {"is_consequence": 1, "check": 1, "search": 1, "verify_delta_c": 1,
                      "option_table_lines": 4}


# ---------------------------------------------------------------------------
# The proof layer loads matrix only to decide a sequent

_PROOF_LAYER = """
import json, sys
from cnl4 import nd
from cnl4.formula import parse_sequent
result = %s
print(json.dumps([result, sorted(m for m in sys.modules if m.startswith("cnl4."))]))
"""


@pytest.mark.parametrize(("expression", "result", "layers"), [
    ("None", None, set()),
    ("str(nd.check(nd.from_json_dict(json.loads(sys.argv[1]))).conclusion)", "p & q", set()),
    ("len([(nd.render_derivation(e.derivation), nd.derivation_sequent(e.derivation))"
     " for e in nd.corpus()])", 10, set()),
    ("nd.search(parse_sequent('p & q |- q | r')) is not None", True, {"cnl4.prove"}),
    ("nd.search(parse_sequent('a | b |- b | a')) is not None", True, MATRIX | {"cnl4.prove"}),
    ("nd.soundness_check(nd.corpus()[0].derivation)", True, MATRIX),
], ids=["import", "load and check", "corpus", "search without a split", "search with a split",
        "soundness check"])
def test_the_proof_layer_loads_matrix_only_to_decide(expression, result, layers) -> None:
    entry = next(e for e in nd.corpus() if e.name == "andI-andE-roundtrip")
    found, loaded = fresh(_PROOF_LAYER % expression, json.dumps(nd.to_json_dict(entry.derivation)))
    assert found == result
    assert set(loaded) == {"cnl4.formula", "cnl4.nd"} | layers


# ---------------------------------------------------------------------------
# Search lives in prove, which only a search loads

_READ_NAMES = """
import json, sys
import cnl4
for name in sys.argv[1:]:
    module, _, attr = name.rpartition(".")
    getattr(__import__(module, fromlist=["_"]), attr)
print(json.dumps("cnl4.prove" in sys.modules))
"""


@pytest.mark.parametrize(("names", "loaded"), [
    (["cnl4.check", "cnl4.from_json_dict", "cnl4.to_json_dict", "cnl4.soundness_check",
      "cnl4.corpus", "cnl4.render_derivation"], False),
    (["cnl4.cli.check", "cnl4.cli.from_json_dict", "cnl4.cli.corpus"], False),
    (["cnl4.search"], True),
    (["cnl4.nd.search"], True),
    (["cnl4.cli.search"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_only_reading_search_loads_prove(names, loaded) -> None:
    assert fresh(_READ_NAMES, *names) is loaded


_SEARCH_IDENTITY = """
import json, sys
import cnl4
from cnl4 import cli, nd, prove
first = {"cnl4": cnl4, "nd": nd, "cli": cli}[sys.argv[1]].search
print(json.dumps(first is cnl4.search is nd.search is cli.search is prove.search))
"""


@pytest.mark.parametrize("first", ["cnl4", "nd", "cli"])
def test_search_is_one_object_whichever_name_is_read_first(first) -> None:
    assert fresh(_SEARCH_IDENTITY, first) is True
    assert cnl4.search is nd.search is cli.search is prove.search


_REPLACED_BEFORE_THE_SPLIT = """
import json, sys
from cnl4 import nd
from cnl4.formula import parse_sequent
calls = []
def counting(sequent):
    from cnl4.matrix import is_consequence
    calls.append(str(sequent))
    return is_consequence(sequent)
nd.is_consequence = counting
before = "cnl4.matrix" in sys.modules
found = nd.search(parse_sequent("a | b |- b | a")) is not None
print(json.dumps([before, found, calls, nd.is_consequence is counting]))
"""


def test_a_replaced_is_consequence_is_what_the_first_split_calls() -> None:
    # binding matrix's names at the split keeps a wrapper installed first
    assert fresh(_REPLACED_BEFORE_THE_SPLIT) == [False, True, ["a | b |- b | a"], True]


def test_search_proof_loads_matrix_at_a_deep_first_split() -> None:
    # the first case split, and so matrix's import, comes with 199 _prove
    # frames on the stack (see test_nd's test_precheck_runs_at_a_deep_first_split)
    sequent = "a | b |- " + " & ".join(["c"] * 200)
    done = subprocess.run([sys.executable, "-m", "cnl4.cli", "search-proof", sequent,
                           "--depth", str(prove.MAX_SEARCH_DEPTH)], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == "invalid\ncountermodel: a=1, b=1, c=0\n"


# ---------------------------------------------------------------------------
# Values the CLI states without importing their layer

def _actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_option_choices_and_depth_default_match_their_layers() -> None:
    actions = list(_actions(cli.build_parser()))
    assert {tuple(a.choices) for a in actions if a.dest == "option"} == {tuple(relational.OPTIONS)}
    assert {a.default for a in actions if a.dest == "depth"} == {prove.DEFAULT_DEPTH}
