"""End-to-end tests of the command-line interface.

Everything goes through run(argv) in-process, where capsys collects the
output, except the hash-seed test, which needs one interpreter per seed,
and the test of the interpreter's flush of stdout at exit.
Exit code contract: 0 success/valid, 1 invalid (countermodel printed),
2 failed check/verification, 3 usage, parse, input or output error,
4 internal error.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

import cnl4
from cnl4 import cli
from cnl4.cli import run
from cnl4.formula import MAX_DEPTH, format_formula, parse
from cnl4.nd import (
    MAX_PROOF_DEPTH,
    check,
    corpus,
    from_json_dict,
    to_json_dict,
)
from cnl4.prove import MAX_SEARCH_DEPTH
from cnl4.relational import OPTIONS, FalsityStyle
from helpers import (
    and_elim_chain,
    deep_formula_texts,
    formula_strategy,
    reference_mismatches,
    reference_truthtable_output,
)


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse / eval / truthtable


def test_parse_normalizes(capsys) -> None:
    code, out, _ = invoke(capsys, "parse", "p&(q|r)")
    assert code == 0
    assert out == "p & (q | r)\n"


def test_parse_json_tree(capsys) -> None:
    code, out, _ = invoke(capsys, "parse", "~p", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "~p"
    assert payload["variables"] == ["p"]
    assert payload["tree"] == {"type": "neg", "body": {"type": "atom", "name": "p"}}


def test_parse_error_exit_code(capsys) -> None:
    code, out, err = invoke(capsys, "parse", "p & (q")
    assert code == 3
    assert out == ""
    assert "parse error" in err
    assert "position 7" in err


def _formula_verbs(text: str) -> list[list[str]]:
    bindings = ["p=1", "q=j"] if "q" in text else ["p=1"]  # eval refuses an absent atom
    return [["parse", text], ["eval", text, *bindings], ["truthtable", text],
            ["conseq", f"{text} |- {text}"], ["countermodel", f"{text} |- p"],
            ["search-proof", f"{text} |- {text}"], ["options", "compare", text]]


@pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
@pytest.mark.parametrize("shape", deep_formula_texts(1))
def test_every_verb_succeeds_at_the_depth_bound(capsys, tmp_path, shape, output) -> None:
    text = deep_formula_texts(MAX_DEPTH)[shape]
    for argv in _formula_verbs(text):
        code, _, err = invoke(capsys, *argv, *output)
        assert code in (0, 1) and err == "", argv[0]
    _, out, _ = invoke(capsys, "search-proof", f"{text} |- {text}", "--format", "json")
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps(json.loads(out)["derivation"]))
    code, _, err = invoke(capsys, "check-proof", str(proof), *output)
    assert code == 0 and err == ""


@pytest.mark.parametrize("shape", deep_formula_texts(1))
def test_every_verb_refuses_past_the_depth_bound(capsys, shape) -> None:
    text = deep_formula_texts(MAX_DEPTH + 1)[shape]
    for argv in _formula_verbs(text):
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and out == "", argv[0]
        assert err.count("\n") == 1
        assert f"nested deeper than {MAX_DEPTH} levels" in err


def test_eval_basic(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "~p", "p=1")
    assert code == 0
    assert out == "i\n"


def test_eval_fde_rendering(capsys) -> None:
    code, out, _ = invoke(capsys, "eval", "p", "p=i", "--fde")
    assert code == 0
    assert out == "b\n"
    code, out, _ = invoke(
        capsys, "eval", "p", "p=i", "--fde", "--option", "O2"
    )
    assert code == 0
    assert out == "n\n"


def test_eval_bad_binding(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "p", "p=x")
    assert code == 3
    assert "unknown truth value" in err
    code, _, err = invoke(capsys, "eval", "p", "p")
    assert code == 3


@pytest.mark.parametrize("bindings", [["p=1", "p=0"], ["p=1", "q=0", "p=1"]])
def test_eval_refuses_a_name_bound_twice(capsys, bindings) -> None:
    code, out, err = invoke(capsys, "eval", "p | q", *bindings)
    assert code == 3
    assert out == ""
    assert err == "cnl4: error: variable 'p' is bound more than once\n"


@pytest.mark.parametrize("bindings", [["p=1", "zz=0"], ["zz=0", "p=1"], ["p=1", "zz=x"]])
def test_eval_refuses_a_binding_for_an_absent_atom(capsys, bindings) -> None:
    code, out, err = invoke(capsys, "eval", "p", *bindings)
    assert code == 3
    assert out == ""
    assert err == "cnl4: error: variable 'zz' does not occur in the formula\n"


def test_eval_unbound_variable(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "p & q", "p=1")
    assert code == 3
    assert "q" in err


def test_truthtable_constant_schema(capsys) -> None:
    code, out, _ = invoke(capsys, "truthtable", "p | ~~p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p | p | ~~p"
    assert lines[1:] == ["1 | 1", "i | 1", "j | 1", "0 | 1"]


def test_truthtable_json(capsys) -> None:
    code, out, _ = invoke(capsys, "truthtable", "p & q", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["p", "q"]
    assert len(payload["rows"]) == 16
    assert payload["rows"][0] == {
        "assignment": {"p": "1", "q": "1"},
        "value": "1",
    }


@pytest.mark.parametrize("option", [None, "O1", "O2", "O3", "O4"])
@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
@settings(max_examples=25, deadline=None)
@given(f=formula_strategy(atoms=("p", "q", "r", "s"), max_leaves=8))
def test_truthtable_streams_the_bytes_of_the_whole_table(json_out, option, f) -> None:
    argv = ["truthtable", format_formula(f)] + (["--format", "json"] if json_out else [])
    argv += [] if option is None else ["--fde", "--option", option]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        0, reference_truthtable_output(f, json_out, option), "")


@pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
def test_truthtable_memory_stays_at_a_block(monkeypatch, output) -> None:
    # 4**7 rows: building them all first peaked at 7 MB (text) and 37 MB (json)
    conjunction = " & ".join(f"x{k}" for k in range(7))
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        assert run(["truthtable", "p"] + output) == 0  # loads the layers first
        tracemalloc.start()
        try:
            code = run(["truthtable", conjunction] + output)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


@pytest.mark.parametrize("output", ["text", "json"])
def test_fde_names_every_value_from_one_option_read(capsys, monkeypatch, output) -> None:
    cli._load("relational")
    reads = []
    monkeypatch.setattr(cli, "get_option", lambda option_id: reads.append(option_id)
                        or OPTIONS[option_id])
    code, out, _ = invoke(capsys, "truthtable", "a & b", "--fde", "--option", "O3",
                          "--format", output)
    assert (code, reads) == (0, ["O3"])
    assert out == reference_truthtable_output(parse("a & b"), output == "json", "O3")


# ---------------------------------------------------------------------------
# conseq / countermodel


def test_conseq_valid(capsys) -> None:
    code, out, _ = invoke(capsys, "conseq", "q |- p | ~~p")
    assert code == 0
    assert out == "valid\n"


def test_conseq_invalid_prints_countermodel(capsys) -> None:
    code, out, _ = invoke(capsys, "conseq", "q |- p | ~p")
    assert code == 1
    assert out == "invalid\ncountermodel: p=0, q=1\n"


def test_conseq_json(capsys) -> None:
    code, out, _ = invoke(
        capsys, "conseq", "p & ~p |- q", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["countermodel"] == {"p": "1", "q": "0"}
    assert payload["sequent"] == "p & ~p |- q"


def test_countermodel_command(capsys) -> None:
    code, out, _ = invoke(capsys, "countermodel", "~~p |- p")
    assert code == 1
    assert out == "p=0\n"
    code, out, _ = invoke(capsys, "countermodel", "p |- p")
    assert code == 0
    assert "valid" in out


def test_countermodel_fde_rendering(capsys) -> None:
    code, out, _ = invoke(
        capsys, "countermodel", "~~p |- p", "--fde", "--option", "O2"
    )
    assert code == 1
    assert out == "p=f\n"


def test_cap_environment_variable(capsys, monkeypatch) -> None:
    monkeypatch.setenv("CNL4_CAP", "1")
    code, _, err = invoke(capsys, "conseq", "p |- q")
    assert code == 3
    assert "cap" in err.lower()
    # An explicit flag wins over the environment.
    code, out, _ = invoke(capsys, "conseq", "p |- q", "--cap", "5")
    assert code == 1


def test_cap_environment_must_be_integer(capsys, monkeypatch) -> None:
    monkeypatch.setenv("CNL4_CAP", "many")
    code, _, err = invoke(capsys, "conseq", "p |- p")
    assert code == 3
    assert "CNL4_CAP" in err


@pytest.mark.parametrize("argv", [
    ["parse", "p"], ["eval", "p", "p=1"], ["search-proof", "p |- p"], ["corpus"],
    ["check-proof", "missing.json"], ["fc", "verify"], ["fc", "closure"],
    ["fc", "find", "--target", "t:t,b:b,n:n,f:f"], ["options", "table", "--option", "O1"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cap_environment_is_ignored_without_cap_flag(capsys, monkeypatch, tmp_path,
                                                      argv) -> None:
    # only the verbs that take --cap read CNL4_CAP
    monkeypatch.chdir(tmp_path)
    expected = invoke(capsys, *argv)
    for value in ("many", "0"):
        monkeypatch.setenv("CNL4_CAP", value)
        assert invoke(capsys, *argv) == expected


# ---------------------------------------------------------------------------
# proofs


def test_check_proof_roundtrip(capsys, tmp_path) -> None:
    entry = next(e for e in corpus() if e.name == "deMorgan-nor-to-disj")
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(to_json_dict(entry.derivation)))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ok"
    assert "conclusion: ~p | ~q" in out
    assert "open assumptions: ~(p | q)" in out


def test_check_proof_rule_violation(capsys, tmp_path) -> None:
    bad = {
        "rule": "NN1",
        "conclusion": "q",
        "premises": [
            {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h1"},
            {"rule": "Hyp", "conclusion": "~p", "premises": [], "label": "h2"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = invoke(capsys, "check-proof", str(path))
    assert code == 2
    assert "check failed" in err


def test_check_proof_rule_violation_json(capsys, tmp_path) -> None:
    bad = {
        "rule": "AndI",
        "conclusion": "p | q",
        "premises": [
            {"rule": "Hyp", "conclusion": "p", "premises": [], "label": "h1"},
            {"rule": "Hyp", "conclusion": "q", "premises": [], "label": "h2"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = invoke(
        capsys, "check-proof", str(path), "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["error"]["rule"] == "AndI"
    assert payload["error"]["path"] == []


def test_check_proof_error_is_independent_of_the_hash_seed(tmp_path) -> None:
    # h2 labels both a and b, so the discharge check sees a two-element set
    hyp_a, hyp_b = ({"rule": "Hyp", "label": "h2", "conclusion": c} for c in "ab")
    proof = {"rule": "OrE", "conclusion": "a", "discharge": ["h2", "h3"], "premises": [
        {"rule": "Hyp", "label": "h1", "conclusion": "p | q"},
        {"rule": "AndE_L", "conclusion": "a", "premises": [
            {"rule": "AndI", "conclusion": "a & b", "premises": [hyp_a, hyp_b]}]},
        {"rule": "Hyp", "label": "h4", "conclusion": "a"},
    ]}
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    src = str(Path(cnl4.__file__).parents[1])
    outputs = set()
    for seed in range(8):
        done = subprocess.run(
            [sys.executable, "-m", "cnl4.cli", "check-proof", str(path), "--format", "json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": str(seed), "PYTHONDONTWRITEBYTECODE": "1"})
        assert done.returncode == 2
        outputs.add(done.stdout)
    [out] = outputs
    assert json.loads(out)["error"]["message"] == (
        "hypothesis 'h2' is a, but the case formula is p")


def test_check_proof_malformed_json(capsys, tmp_path) -> None:
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "check-proof", str(path))
    assert code == 3
    assert "JSON" in err


def test_check_proof_unknown_rule(capsys, tmp_path) -> None:
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"rule": "Zap", "conclusion": "p", "premises": []}))
    code, _, err = invoke(capsys, "check-proof", str(path))
    assert code == 3
    assert "Zap" in err


@pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
def test_check_proof_succeeds_at_the_proof_depth_bound(capsys, tmp_path, output) -> None:
    # the Hyp at the foot concludes a formula at the formula depth bound
    path = tmp_path / "deep.json"
    path.write_text(and_elim_chain(MAX_PROOF_DEPTH, MAX_DEPTH - MAX_PROOF_DEPTH + 1))
    code, _, err = invoke(capsys, "check-proof", str(path), *output)
    assert code == 0 and err == ""


@pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
@pytest.mark.parametrize("text, message", [
    (and_elim_chain(MAX_PROOF_DEPTH + 1), f"proof nested deeper than {MAX_PROOF_DEPTH} levels"),
    (and_elim_chain(3000), "proof file nested too deeply to read"),
    ("[" * 100_000 + "]" * 100_000, "proof file nested too deeply to read"),
], ids=["bound+1", "3000-deep chain", "nested arrays"])
def test_check_proof_refuses_deep_files(capsys, tmp_path, output, text, message) -> None:
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "check-proof", str(path), *output)
    assert code == 3 and out == ""
    assert err == f"cnl4: proof format error: {message}\n"


@pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
def test_check_proof_refuses_premises_that_are_not_an_array(capsys, tmp_path, output) -> None:
    path = tmp_path / "object.json"
    path.write_text(json.dumps({"rule": "NN2", "conclusion": "p | ~~p", "premises": {}}))
    code, out, err = invoke(capsys, "check-proof", str(path), *output)
    assert code == 3 and out == ""
    assert err == "cnl4: proof format error: 'premises' must be an array\n"


def test_check_proof_missing_file(capsys, tmp_path) -> None:
    code, _, err = invoke(capsys, "check-proof", str(tmp_path / "nope.json"))
    assert code == 3
    assert "cannot read" in err


def test_search_proof_found(capsys) -> None:
    code, out, _ = invoke(capsys, "search-proof", "~p, ~q |- ~(p & q)")
    assert code == 0
    assert out.startswith("NAndI ~(p & q)")


def test_search_proof_json_feeds_check_proof(capsys, tmp_path) -> None:
    code, out, _ = invoke(
        capsys, "search-proof", "~(p | q) |- ~p | ~q", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    derivation = from_json_dict(payload["derivation"])
    assert check(derivation).conclusion is not None

    path = tmp_path / "found.json"
    path.write_text(json.dumps(payload["derivation"]))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ok"


def test_search_proof_not_found(capsys) -> None:
    # valid, but AndI needs depth 2
    code, out, _ = invoke(capsys, "search-proof", "p & q |- q & p", "--depth", "1")
    assert code == 2
    assert out == "no derivation found within depth 1\n"


@pytest.mark.parametrize("sequent", ["~~p |- p", "p |- q", "p, ~q |- q & r | ~p"])
def test_search_proof_reports_an_invalid_sequent_as_conseq_does(capsys, sequent) -> None:
    assert invoke(capsys, "search-proof", sequent) == invoke(capsys, "conseq", sequent)
    code, out, _ = invoke(capsys, "search-proof", sequent, "--format", "json")
    _, conseq_out, _ = invoke(capsys, "conseq", sequent, "--format", "json")
    assert code == 1
    assert json.loads(out) == {"found": False, "depth": 6,
                               "countermodel": json.loads(conseq_out)["countermodel"]}


def test_search_proof_above_the_cap_reports_only_a_miss(capsys) -> None:
    # 11 variables: the matrix check is skipped, so invalidity is not shown
    sequent = "a | b, c | d, e | f, g | h, i | j |- k"
    code, out, err = invoke(capsys, "search-proof", sequent, "--depth", "3")
    assert (code, out, err) == (2, "no derivation found within depth 3\n", "")


def test_search_proof_bad_depth(capsys) -> None:
    code, _, err = invoke(capsys, "search-proof", "p |- p", "--depth", "0")
    assert code == 3
    assert "depth" in err


@pytest.mark.parametrize("depth", [MAX_SEARCH_DEPTH + 1, 1100])
def test_search_proof_refuses_depth_past_the_bound(capsys, depth) -> None:
    # at depth 1100 this search used to run for over a minute, then crash
    code, out, err = invoke(capsys, "search-proof", "p | q |- r", "--depth", str(depth))
    assert (code, out) == (3, "")
    assert err == (f"cnl4: error: search depth {depth} exceeds the bound of "
                   f"{MAX_SEARCH_DEPTH}\n")


def test_corpus_listing(capsys) -> None:
    code, out, _ = invoke(capsys, "corpus")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(corpus())
    assert "nn2: |- p | ~~p" in lines


def test_corpus_json_reloads(capsys) -> None:
    code, out, _ = invoke(capsys, "corpus", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == len(corpus())
    for item in payload:
        derivation = from_json_dict(item["derivation"])
        check(derivation)


# ---------------------------------------------------------------------------
# fc


def test_fc_verify(capsys) -> None:
    code, out, _ = invoke(capsys, "fc", "verify")
    assert code == 0
    assert "32/32 checks passed" in out
    assert "bool_neg table: 1:0,i:0,j:1,0:1 (derived)" in out


def test_fc_verify_json(capsys) -> None:
    code, out, _ = invoke(capsys, "fc", "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 32
    assert payload["bool_neg_table"] == "1:0,i:0,j:1,0:1"


def test_fc_closure(capsys) -> None:
    code, out, _ = invoke(capsys, "fc", "closure")
    assert code == 0
    assert "tables reached: 256" in out
    assert "complete: yes" in out


def test_fc_budget_flag_is_refused(capsys) -> None:
    # the closure always has all 256 tables, so there is no budget to set
    for argv in (["fc", "closure", "--budget", "100"],
                 ["fc", "find", "--target", "t:t,b:b,n:n,f:f", "--budget", "256"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "unrecognized arguments: --budget" in err


def test_fc_find_identity(capsys) -> None:
    code, out, _ = invoke(capsys, "fc", "find", "--target", "t:t,b:b,n:n,f:f")
    assert code == 0
    assert out.splitlines()[0] == "x"


def test_fc_find_de_morgan_negation(capsys) -> None:
    code, out, _ = invoke(capsys, "fc", "find", "--target", "t:f,b:b,n:n,f:t")
    assert code == 0
    term = out.splitlines()[0]
    # Check the term against the request without trusting the search.
    from cnl4.fc import fn_of_unary_term, unary_table
    from cnl4.formula import parse
    from cnl4.matrix import Value

    flip = {Value.V1: Value.V0, Value.VI: Value.VI,
            Value.VJ: Value.VJ, Value.V0: Value.V1}
    assert fn_of_unary_term(parse(term)) == unary_table(lambda v: flip[v])


def test_fc_find_respects_option_map(capsys) -> None:
    # Under O3 the letters name different matrix values, so the same
    # target text asks for a different table.
    code, out, _ = invoke(
        capsys, "fc", "find", "--target", "t:t,b:b,n:n,f:f", "--option", "O3"
    )
    assert code == 0
    assert out.splitlines()[0] == "x"


@pytest.mark.parametrize("target", ["t:f,b:b,n:n,f:t,t:b", "t:f,b:b,n:n,t:f,f:t",
                                    "t:f, b:b, n:n, f:t, b:b"])
def test_fc_find_refuses_a_value_given_twice(capsys, target) -> None:
    code, out, err = invoke(capsys, "fc", "find", "--target", target)
    assert code == 3
    assert out == ""
    repeated = "b" if target.endswith("b:b") else "t"
    assert err == f"cnl4: error: target table gives {repeated} more than once\n"


def test_fc_find_incomplete_table(capsys) -> None:
    code, _, err = invoke(capsys, "fc", "find", "--target", "t:t,b:b")
    assert code == 3
    assert "missing" in err


# ---------------------------------------------------------------------------
# options


def test_options_table_single(capsys) -> None:
    import importlib.resources

    golden = (
        importlib.resources.files("cnl4.data")
        .joinpath("option_O3.txt")
        .read_text()
    )
    code, out, _ = invoke(capsys, "options", "table", "--option", "O3")
    assert code == 0
    assert out.splitlines() == golden.splitlines()


def test_options_table_all(capsys) -> None:
    code, out, _ = invoke(capsys, "options", "table")
    assert code == 0
    for option_id in ("O1", "O2", "O3", "O4"):
        assert f"option {option_id}" in out.splitlines()


def test_options_compare(capsys) -> None:
    code, out, _ = invoke(capsys, "options", "compare", "~(p & q)")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "O1: ok (16 interpretations)"


def test_options_compare_single_option(capsys) -> None:
    code, out, _ = invoke(
        capsys, "options", "compare", "~~p", "--option", "O2"
    )
    assert code == 0
    assert out == "O2: ok (4 interpretations)\n"


@pytest.mark.parametrize("output", ["text", "json"])
def test_options_compare_reports_a_mismatch(capsys, monkeypatch, output) -> None:
    # no bundled option mismatches, so O2 is given the other falsity style
    cli._load("relational")
    broken = OPTIONS["O2"]._replace(falsity_style=FalsityStyle.BOTH)
    monkeypatch.setattr(cli, "get_option", lambda option_id: broken)
    code, out, _ = invoke(capsys, "options", "compare", "p & q", "--option", "O2",
                          "--format", output)
    assert code == 2
    if output == "text":
        assert out.splitlines()[0] == ("O2: MISMATCH at p=1, q=j: "
                                       "map gives {1,0}, clauses give {1}")
        return
    [record] = json.loads(out)
    assert (record["option"], record["ok"], record["checked"]) == ("O2", False, 16)
    assert record["mismatches"] == [
        {"interpretation": {k: v.value for k, v in m.interpretation.items()},
         "via_map": str(m.via_map), "via_clauses": str(m.via_clauses)}
        for m in reference_mismatches(broken, parse("p & q"))]


# ---------------------------------------------------------------------------
# usage plumbing


@pytest.mark.parametrize("error", [RuntimeError("boom"),
                                   RecursionError("maximum recursion depth exceeded")])
def test_unexpected_error_is_an_internal_error(capsys, monkeypatch, error) -> None:
    def broken(args):
        raise error
    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = invoke(capsys, "parse", "p")
    assert (code, out) == (4, "")
    assert err == f"cnl4: internal error: {type(error).__name__}: {error}\n"


def test_each_named_error_row_is_an_exception_the_cli_binds() -> None:
    # a misspelt row matches nothing, and its error would exit 4
    bound = {name for _, names in cli._GROUPS for name in names}
    kinds = [kind for kind, _, _ in cli._ERRORS if isinstance(kind, str)]
    assert kinds and set(kinds) <= bound
    assert all(issubclass(getattr(cli, kind), Exception) for kind in kinds)


class _FailingStdout(io.StringIO):
    """Takes ``writes`` writes, then raises ``error`` on every one."""

    def __init__(self, error: OSError, writes: int = 0) -> None:
        super().__init__()
        self.error = error
        self.writes = writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise self.error
        self.writes -= 1
        return super().write(text)


@pytest.mark.parametrize("argv, writes", [
    (["parse", "p"], 0),
    (["truthtable", "a & b & c & d"], 1),  # fails part-way through the rows
    (["truthtable", "a & b & c & d", "--format", "json"], 1),
], ids=["parse", "truthtable", "truthtable-json"])
@pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                   OSError(28, "No space left on device")])
def test_a_failed_write_is_an_output_error(capsys, monkeypatch, error, argv, writes) -> None:
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error, writes))
    code = run(argv)
    assert (code, capsys.readouterr().err) == (3, f"cnl4: cannot write output: {error}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_keeps_its_exit_code_past_the_flush_at_exit() -> None:
    # block-buffered stdout keeps the unwritten bytes, and the interpreter
    # flushes them again at exit, which would print a second error and exit 120
    src = str(Path(cnl4.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cnl4.cli", "parse", "p"], stdout=full,
                              stderr=subprocess.PIPE, text=True,
                              env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stderr) == (
        3, "cnl4: cannot write output: [Errno 28] No space left on device\n")


def _verb_nodes() -> list[tuple[str, ast.AST]]:
    """Every AST node inside a ``cmd_*`` function of ``cli``, with the verb's name."""
    with open(cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return [(func.name, node) for func in tree.body
            if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")
            for node in ast.walk(func)]


def test_verbs_write_to_stdout_only_through_run() -> None:
    prints = [
        (name, node.lineno) for name, node in _verb_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                    for kw in node.keywords)
    ]
    assert prints == []


def test_verbs_take_their_inputs_parsed() -> None:
    # run settles the formula, sequent, bindings and target before a verb runs
    parsing = [
        (name, node.func.id) for name, node in _verb_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("parse", "parse_sequent", "_parse_bindings", "_parse_fde_table")
    ]
    assert parsing == []


def test_only_verbs_whose_result_differs_by_format_read_it() -> None:
    # a truth table renders both formats lazily over one row iterator instead
    readers = {name for name, node in _verb_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "format"}
    assert readers == {"cmd_check_proof", "cmd_fc_closure"}


def test_unknown_command(capsys) -> None:
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 3
    assert "error" in err


def test_missing_required_argument(capsys) -> None:
    code, _, err = invoke(capsys, "conseq")
    assert code == 3


def test_unknown_option_value(capsys) -> None:
    code, _, err = invoke(capsys, "eval", "p", "p=1", "--option", "O9")
    assert code == 3


def test_repeat_invocations_are_byte_identical(capsys) -> None:
    first = invoke(capsys, "fc", "closure", "--format", "json")
    second = invoke(capsys, "fc", "closure", "--format", "json")
    assert first == second
    third = invoke(capsys, "corpus", "--format", "json")
    fourth = invoke(capsys, "corpus", "--format", "json")
    assert third == fourth
