"""The unary clone closure: its table-index operations and its output.

The index operations are checked against the matrix tables applied
pointwise, one table at a time and packed one table per byte.  The
closure itself is pinned byte for byte to golden files in ``tests/data``,
written by the original implementation over ``UnaryTable`` objects and
terms: the ``fc closure`` stdout in JSON and text, and every witness in
insertion order with the round count (the JSON output sorts by table, so
only that file pins the order).
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

import cnl4.fc
from cnl4.cli import run
from cnl4.fc import (
    _IDENTITY,
    IDENTITY_TABLE,
    NEG_TABLE,
    _closure,
    _compose,
    _index_closure,
    _join,
    _meet,
    _neg,
    _precompose,
    _unary_table,
    find_term_for_unary,
    slupecki_check,
    unary_clone_closure,
)
from cnl4.formula import Atom, Neg, format_formula, size, subformulas
from cnl4.matrix import AND, CANONICAL_ORDER, NEG, OR
from helpers import all_unary_tables

DATA = Path(__file__).parent / "data"
TABLES = [_unary_table(t) for t in range(256)]
PAIRS = [(a, b) for a in range(256) for b in range(256)]


def pointwise(fn, *tables):
    return tuple(fn(*(t.apply(v) for t in tables)) for v in CANONICAL_ORDER)


@pytest.fixture(scope="module")
def closure():
    return unary_clone_closure()


# ---------------------------------------------------------------------------
# Table-index operations


def test_indices_number_every_unary_table_once() -> None:
    assert sorted(TABLES, key=str) == sorted(all_unary_tables(), key=str)
    assert _unary_table(_IDENTITY) == IDENTITY_TABLE
    assert _unary_table(_neg(_IDENTITY)) == NEG_TABLE


def test_neg_matches_matrix_pointwise() -> None:
    for t, table in enumerate(TABLES):
        assert TABLES[_neg(t)].outputs == pointwise(NEG.get, table)


@pytest.mark.parametrize("op, table", [(_meet, AND), (_join, OR)], ids=["meet", "join"])
def test_meet_and_join_match_matrix_pointwise(op, table) -> None:
    for a, b in PAIRS:
        assert TABLES[op(a, b)].outputs == pointwise(lambda u, v: table[(u, v)],
                                                     TABLES[a], TABLES[b])


def test_compose_and_precompose_match_pointwise_composition() -> None:
    for f, g in PAIRS:
        expected = pointwise(TABLES[f].apply, TABLES[g])
        assert TABLES[_compose(f, g)].outputs == expected
        assert TABLES[_precompose(f, g)].outputs == expected


def test_packed_operations_act_lane_by_lane() -> None:
    # all 256 tables one per byte, against a seeded sample of fixed operands
    lanes = int.from_bytes(b"\1" * 256, "little")
    packed = int.from_bytes(bytes(range(256)), "little")
    for f in random.Random(7).sample(range(256), 32):
        rows = {
            "neg": (_neg(packed, lanes), [_neg(g) for g in range(256)]),
            "meet": (_meet(f * lanes, packed, lanes), [_meet(f, g) for g in range(256)]),
            "join": (_join(f * lanes, packed, lanes), [_join(f, g) for g in range(256)]),
            "compose": (_compose(f, packed, lanes), [_compose(f, g) for g in range(256)]),
            "precompose": (_precompose(packed, f, lanes),
                           [_precompose(g, f) for g in range(256)]),
        }
        for name, (row, expected) in rows.items():
            assert list(row.to_bytes(256, "little")) == expected, (name, f)


def test_import_builds_no_closure() -> None:
    code = "import cnl4.cli, cnl4.fc; print(cnl4.fc._closure.cache_info().currsize)"
    src = str(Path(cnl4.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout == "0\n"


def test_import_loads_neither_dataclasses_nor_inspect() -> None:
    # each costs the start-up of every command; cnl4's records are
    # NamedTuples and hand-written slotted classes instead
    code = ("import sys, cnl4.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(cnl4.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout == "[]\n"


def test_find_and_slupecki_share_one_closure_call(monkeypatch) -> None:
    # the shared cache calls the module-level name, so a wrapper sees it
    calls = []

    def counted():
        calls.append(1)
        return unary_clone_closure()

    monkeypatch.setattr(cnl4.fc, "unary_clone_closure", counted)
    _closure.cache_clear()
    try:
        assert find_term_for_unary(NEG_TABLE) == Neg(Atom("x"))
        assert slupecki_check().unary_complete
        assert find_term_for_unary(IDENTITY_TABLE) == Atom("x")
        assert len(calls) == 1
    finally:
        _closure.cache_clear()


def test_measured_witness_sizes_and_x_counts_are_exact() -> None:
    terms, measures, _ = _index_closure()
    assert set(measures) == set(terms)
    for t, term in terms.items():
        xs = sum(1 for sub in subformulas(term) if sub == Atom("x"))
        assert measures[t] == (size(term), xs), format_formula(term)


# ---------------------------------------------------------------------------
# Golden output


@pytest.mark.parametrize("argv, golden", [
    (["fc", "closure", "--format", "json"], "fc_closure.json"),
    (["fc", "closure"], "fc_closure.txt"),
], ids=["json", "text"])
def test_fc_closure_stdout_matches_golden(capsys, argv, golden) -> None:
    assert run(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_witness_order_and_rounds_match_golden(closure) -> None:
    lines = [f"rounds {closure.rounds}"]
    lines += [f"{table}\t{format_formula(term)}" for table, term in closure.witnesses.items()]
    assert "\n".join(lines) + "\n" == (DATA / "closure_witness_order.txt").read_text(
        encoding="utf-8")
    assert closure.rounds == 5
