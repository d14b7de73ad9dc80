"""Which layers ``import cnl4`` and each CLI verb load, and what they keep.

``cnl4`` imports a layer when one of its names is first read, and the CLI
imports ``matrix``, ``nd``, ``fc`` and ``relational`` only for the verbs
that use them.  Module loading is checked in fresh interpreters, one per
case, with no bytecode written.  The public surface and the names the
benchmark tracer wraps on ``cnl4.cli`` must resolve as they did with
eager imports.
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
from cnl4 import cli, nd, relational

SRC = str(Path(cnl4.__file__).parents[1])
TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"
#: What every CLI command loads, and what ``matrix`` brings with it.
BASE = {"cnl4.cli", "cnl4.formula"}
MATRIX = {"cnl4.matrix", "cnl4.engine"}

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
SUBMODULES = ("formula", "engine", "matrix", "relational", "nd", "fc")


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
    (["check-proof", "{proof}"], MATRIX | {"cnl4.nd"}),
    (["search-proof", "p & q |- q & p"], MATRIX | {"cnl4.nd"}),
    (["fc", "verify"], MATRIX | {"cnl4.fc"}),
    (["options", "table"], MATRIX | {"cnl4.relational"}),
    (["conseq", "p |- q", "--fde"], MATRIX | {"cnl4.relational"}),
    (["eval", "p & q", "p=1", "q=j"], MATRIX),
    (["countermodel", "p |- q"], MATRIX),
    (["corpus"], MATRIX | {"cnl4.nd"}),
    (["fc", "closure"], MATRIX | {"cnl4.fc"}),
    (["fc", "find", "--target", "t:f,b:b,n:n,f:t"], MATRIX | {"cnl4.fc", "cnl4.relational"}),
    (["options", "compare", "p | ~p"], MATRIX | {"cnl4.relational"}),
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
# The names the benchmark tracer wraps on cnl4.cli

def _traced_cli_names() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [entries] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "PROGRAM_ENTRY_POINTS" for t in node.targets)]
    return [attr for module, attr, _ in entries if module == "cnl4.cli"]


def test_tracer_names_resolve_on_a_fresh_cli() -> None:
    names = _traced_cli_names()
    assert {"is_consequence", "check", "search", "verify_delta_c",
            "option_table_lines"} <= set(names)
    resolved = fresh("import json, sys\nimport cnl4.cli\n"
                     "print(json.dumps([callable(getattr(cnl4.cli, n)) for n in sys.argv[1:]]))",
                     *names)
    assert resolved == [True] * len(names)


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
    assert {a.default for a in actions if a.dest == "depth"} == {nd.DEFAULT_DEPTH}
