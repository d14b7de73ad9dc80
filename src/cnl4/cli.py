"""Command-line front end.

One verb per library capability: formula parsing and evaluation, truth
tables, consequence checking with countermodels, proof checking and
search, the bundled derivation corpus, functional-completeness reports,
and the option-reading tables.

Exit codes: 0 success/valid; 1 semantically invalid (a countermodel was
found and printed); 2 check or verification failure; 3 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import NoReturn

from .fc import (
    UnaryTable,
    find_term_for_unary,
    unary_clone_closure,
    verify_delta_c,
)
from .formula import (
    And,
    Atom,
    Formula,
    Neg,
    Or,
    ParseError,
    format_formula,
    format_sequent,
    parse,
    parse_sequent,
    variables,
)
from .matrix import (
    CANONICAL_ORDER,
    DEFAULT_CAP,
    CapExceededError,
    UnboundVariableError,
    Value,
    countermodel,
    evaluate,
    is_consequence,
    truth_table,
)
from .nd import (
    DEFAULT_DEPTH,
    DerivationError,
    ProofFormatError,
    check,
    corpus,
    derivation_sequent,
    from_json_dict,
    render_derivation,
    search,
    to_json_dict,
)
from .relational import (
    FdeValue,
    OPTIONS,
    check_option_equivalence,
    get_option,
    option_table_lines,
)


@dataclass(frozen=True)
class Config:
    """Resolved run configuration.  ``var_cap`` comes from --cap, then the
    CNL4_CAP environment variable, then the default."""

    var_cap: int = DEFAULT_CAP
    search_depth: int = DEFAULT_DEPTH
    output_format: str = "text"
    option: str = "O1"

    def __post_init__(self) -> None:
        if self.var_cap < 1:
            raise UsageError("cap must be at least 1")
        if self.search_depth < 1:
            raise UsageError("depth must be at least 1")


class UsageError(Exception):
    """Bad invocation: reported on stderr with exit code 3."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # failed checks, so usage errors leave with 3 instead
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _config_from(args: argparse.Namespace) -> Config:
    cap, env = getattr(args, "cap", None), os.environ.get("CNL4_CAP")
    if cap is None and env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"CNL4_CAP must be an integer, got {env!r}") from None
    depth = getattr(args, "depth", None)
    return Config(
        var_cap=DEFAULT_CAP if cap is None else cap,
        search_depth=DEFAULT_DEPTH if depth is None else depth,
        output_format=getattr(args, "format", "text"),
        option=getattr(args, "option", None) or "O1",
    )


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _value_str(v: Value, args: argparse.Namespace, cfg: Config) -> str:
    if getattr(args, "fde", False):
        return get_option(cfg.option).value_map[v].value
    return v.value


def _assignment_str(inter: dict[str, Value], args: argparse.Namespace,
                    cfg: Config) -> str:
    return ", ".join(f"{name}={_value_str(inter[name], args, cfg)}"
                     for name in sorted(inter))


def _assignment_json(inter: dict[str, Value], args: argparse.Namespace,
                     cfg: Config) -> dict[str, str]:
    return {name: _value_str(v, args, cfg) for name, v in inter.items()}


def _tree(f: Formula) -> dict:
    if isinstance(f, Atom):
        return {"type": "atom", "name": f.name}
    if isinstance(f, Neg):
        return {"type": "neg", "body": _tree(f.body)}
    if isinstance(f, And):
        return {"type": "and", "left": _tree(f.left), "right": _tree(f.right)}
    assert isinstance(f, Or)
    return {"type": "or", "left": _tree(f.left), "right": _tree(f.right)}


# --------------------------------------------------------------------------
# Subcommands

def cmd_parse(args: argparse.Namespace, cfg: Config) -> int:
    f = parse(args.formula)
    if cfg.output_format == "json":
        _emit_json({"formula": format_formula(f), "variables": variables(f),
                    "tree": _tree(f)})
    else:
        print(format_formula(f))
    return 0


def _parse_bindings(pairs: list[str]) -> dict[str, Value]:
    assignment: dict[str, Value] = {}
    for pair in pairs:
        name, sep, symbol = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"bindings look like p=1, got {pair!r}")
        try:
            assignment[name] = Value(symbol)
        except ValueError:
            raise UsageError(f"unknown truth value {symbol!r} in {pair!r} "
                             f"(use 1, i, j, 0)") from None
    return assignment


def cmd_eval(args: argparse.Namespace, cfg: Config) -> int:
    f = parse(args.formula)
    assignment = _parse_bindings(args.bindings)
    value = evaluate(f, assignment)
    if cfg.output_format == "json":
        _emit_json({"formula": format_formula(f),
                    "assignment": _assignment_json(assignment, args, cfg),
                    "value": _value_str(value, args, cfg)})
    else:
        print(_value_str(value, args, cfg))
    return 0


def cmd_truthtable(args: argparse.Namespace, cfg: Config) -> int:
    f = parse(args.formula)
    rows = truth_table(f, cfg.var_cap)
    names = variables(f)
    if cfg.output_format == "json":
        _emit_json({"formula": format_formula(f), "variables": names,
                    "rows": [{"assignment": _assignment_json(inter, args, cfg),
                              "value": _value_str(value, args, cfg)}
                             for inter, value in rows]})
    else:
        print(" ".join(names) + " | " + format_formula(f))
        for inter, value in rows:
            cells = " ".join(_value_str(inter[name], args, cfg) for name in names)
            print(cells + " | " + _value_str(value, args, cfg))
    return 0


def cmd_conseq(args: argparse.Namespace, cfg: Config) -> int:
    s = parse_sequent(args.sequent)
    verdict = is_consequence(s, cfg.var_cap)
    if cfg.output_format == "json":
        _emit_json({"sequent": format_sequent(s), "valid": verdict.valid,
                    "countermodel": (None if verdict.witness is None
                                     else _assignment_json(verdict.witness, args, cfg)),
                    "checked": verdict.checked})
    elif verdict.valid:
        print("valid")
    else:
        assert verdict.witness is not None
        print("invalid")
        print("countermodel: " + _assignment_str(verdict.witness, args, cfg))
    return 0 if verdict.valid else 1


def cmd_countermodel(args: argparse.Namespace, cfg: Config) -> int:
    s = parse_sequent(args.sequent)
    witness = countermodel(s, cfg.var_cap)
    if cfg.output_format == "json":
        _emit_json({"sequent": format_sequent(s),
                    "countermodel": (None if witness is None
                                     else _assignment_json(witness, args, cfg))})
    elif witness is None:
        print("none (sequent is valid)")
    else:
        print(_assignment_str(witness, args, cfg))
    return 0 if witness is None else 1


def cmd_check_proof(args: argparse.Namespace, cfg: Config) -> int:
    with open(args.file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:  # the decoder recurses per nested array or object
            raise ProofFormatError("proof file nested too deeply to read") from None
    derivation = from_json_dict(data)
    try:
        checked = check(derivation)
    except DerivationError as exc:
        if cfg.output_format == "json":
            _emit_json({"ok": False,
                        "error": {"rule": exc.rule.value if exc.rule else None,
                                  "path": list(exc.path),
                                  "message": exc.message}})
        else:
            print(f"check failed: {exc}", file=sys.stderr)
        return 2
    open_assumptions = sorted(format_formula(f) for f in checked.open_assumptions)
    if cfg.output_format == "json":
        _emit_json({"ok": True, "conclusion": format_formula(checked.conclusion),
                    "open_assumptions": open_assumptions})
    else:
        print("ok")
        print(f"conclusion: {format_formula(checked.conclusion)}")
        if open_assumptions:
            print("open assumptions: " + ", ".join(open_assumptions))
        else:
            print("open assumptions: (none)")
    return 0


def cmd_search_proof(args: argparse.Namespace, cfg: Config) -> int:
    s = parse_sequent(args.sequent)
    derivation = search(s, cfg.search_depth)
    if derivation is None:
        if cfg.output_format == "json":
            _emit_json({"found": False, "depth": cfg.search_depth})
        else:
            print(f"no derivation found within depth {cfg.search_depth}")
        return 2
    if cfg.output_format == "json":
        _emit_json({"found": True, "derivation": to_json_dict(derivation)})
    else:
        print(render_derivation(derivation))
    return 0


def cmd_corpus(args: argparse.Namespace, cfg: Config) -> int:
    entries = corpus()
    if cfg.output_format == "json":
        _emit_json([{"name": e.name,
                     "sequent": format_sequent(derivation_sequent(e.derivation)),
                     "derivation": to_json_dict(e.derivation)}
                    for e in entries])
    else:
        for e in entries:
            print(f"{e.name}: {format_sequent(derivation_sequent(e.derivation))}")
    return 0


def cmd_fc_verify(args: argparse.Namespace, cfg: Config) -> int:
    report = verify_delta_c()
    if cfg.output_format == "json":
        _emit_json({"ok": report.ok,
                    "checks": [{"term": c.term_name, "argument": c.argument.value,
                                "expected": c.expected.value, "actual": c.actual.value,
                                "ok": c.ok}
                               for c in report.checks],
                    "bool_neg_table": str(report.bool_neg_table)})
    else:
        for c in report.checks:
            status = "ok" if c.ok else "FAIL"
            print(f"{c.term_name}({c.argument}) = {c.actual}, "
                  f"expected {c.expected}: {status}")
        print(f"bool_neg table: {report.bool_neg_table} (derived)")
        passed = sum(1 for c in report.checks if c.ok)
        print(f"{passed}/{len(report.checks)} checks passed")
    return 0 if report.ok else 2


def cmd_fc_closure(args: argparse.Namespace, cfg: Config) -> int:
    result = unary_clone_closure()
    complete = result.size == 256
    if cfg.output_format == "json":
        witnesses = sorted(result.witnesses.items(), key=lambda kv: str(kv[0]))
        _emit_json({"size": result.size, "rounds": result.rounds,
                    "complete": complete,
                    "witnesses": [{"table": str(table),
                                   "term": format_formula(term)}
                                  for table, term in witnesses]})
    else:
        print(f"tables reached: {result.size}")
        print(f"rounds: {result.rounds}")
        print("complete: " + ("yes (all 256 unary functions)" if complete else "NO"))
    return 0 if complete else 2


def _parse_fde_table(text: str) -> dict[FdeValue, FdeValue]:
    mapping: dict[FdeValue, FdeValue] = {}
    for part in text.split(","):
        source, sep, target = part.partition(":")
        if not sep:
            raise UsageError(f"target entries look like t:f, got {part!r}")
        try:
            mapping[FdeValue(source.strip())] = FdeValue(target.strip())
        except ValueError:
            raise UsageError(f"unknown value in {part!r} (use t, b, n, f)") from None
    missing = [w.value for w in FdeValue if w not in mapping]
    if missing:
        raise UsageError(f"target table is missing {', '.join(missing)}")
    return mapping


def _transport_table(option_id: str, mapping: dict[FdeValue, FdeValue]) -> UnaryTable:
    option = get_option(option_id)
    inverse = {w: v for v, w in option.value_map.items()}
    return UnaryTable(tuple(inverse[mapping[option.value_map[v]]] for v in CANONICAL_ORDER))


def cmd_fc_find(args: argparse.Namespace, cfg: Config) -> int:
    target = _transport_table(cfg.option, _parse_fde_table(args.target))
    term = format_formula(find_term_for_unary(target))
    if cfg.output_format == "json":
        _emit_json({"found": True, "target": str(target), "term": term})
    else:
        print(term)
        print(f"table: {target}")
    return 0


def cmd_options_table(args: argparse.Namespace, cfg: Config) -> int:
    ids = [args.option] if args.option else list(OPTIONS)
    if cfg.output_format == "json":
        _emit_json({option_id: option_table_lines(get_option(option_id))
                    for option_id in ids})
    else:
        for k, option_id in enumerate(ids):
            if len(ids) > 1:
                if k:
                    print()
                print(f"option {option_id}")
            for line in option_table_lines(get_option(option_id)):
                print(line)
    return 0


def cmd_options_compare(args: argparse.Namespace, cfg: Config) -> int:
    f = parse(args.formula)
    ids = [args.option] if args.option else list(OPTIONS)
    reports = [check_option_equivalence(get_option(i), f, cfg.var_cap) for i in ids]
    if cfg.output_format == "json":
        _emit_json([{"option": r.option_id, "ok": r.ok, "checked": r.checked,
                     "mismatches": [{"interpretation":
                                     {k: v.value for k, v in m.interpretation.items()},
                                     "via_map": str(m.via_map),
                                     "via_clauses": str(m.via_clauses)}
                                    for m in r.mismatches]}
                    for r in reports])
    else:
        for r in reports:
            if r.ok:
                print(f"{r.option_id}: ok ({r.checked} interpretations)")
            else:
                m = r.mismatches[0]
                where = ", ".join(f"{k}={v}" for k, v in sorted(m.interpretation.items()))
                print(f"{r.option_id}: MISMATCH at {where}: "
                      f"map gives {m.via_map}, clauses give {m.via_clauses}")
    return 0 if all(r.ok for r in reports) else 2


# --------------------------------------------------------------------------
# Parser construction and dispatch

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=int, default=None, metavar="N",
                   help="variable cap for enumeration (default 10, "
                        "or CNL4_CAP)")


def _add_option(p: argparse.ArgumentParser, with_fde: bool = False) -> None:
    p.add_argument("--option", choices=tuple(OPTIONS), default=None,
                   help="option reading (default O1)")
    if with_fde:
        p.add_argument("--fde", action="store_true",
                       help="print values as t/b/n/f via the option's map")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="cnl4",
                             description="four-valued logic workbench")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("parse", help="parse a formula and reprint it")
    p.add_argument("formula")
    _add_format(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula under bindings like p=1")
    p.add_argument("formula")
    p.add_argument("bindings", nargs="*", metavar="name=value")
    _add_format(p)
    _add_option(p, with_fde=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("truthtable", help="print the full truth table")
    p.add_argument("formula")
    _add_format(p)
    _add_cap(p)
    _add_option(p, with_fde=True)
    p.set_defaults(func=cmd_truthtable)

    p = sub.add_parser("conseq", help="check a sequent like 'p, q |- p & q'")
    p.add_argument("sequent")
    _add_format(p)
    _add_cap(p)
    _add_option(p, with_fde=True)
    p.set_defaults(func=cmd_conseq)

    p = sub.add_parser("countermodel", help="print the first countermodel, if any")
    p.add_argument("sequent")
    _add_format(p)
    _add_cap(p)
    _add_option(p, with_fde=True)
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("check-proof", help="check a JSON proof file")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("search-proof", help="bounded proof search for a sequent")
    p.add_argument("sequent")
    p.add_argument("--depth", type=int, default=None, metavar="N",
                   help="maximum derivation height (default 6)")
    _add_format(p)
    p.set_defaults(func=cmd_search_proof)

    p = sub.add_parser("corpus", help="list the bundled derivations")
    _add_format(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("fc", help="functional completeness tools")
    fc_sub = p.add_subparsers(dest="fc_command", required=True, metavar="subcommand")

    q = fc_sub.add_parser("verify", help="check the delta/C defining terms")
    _add_format(q)
    q.set_defaults(func=cmd_fc_verify)

    q = fc_sub.add_parser("closure", help="compute the unary clone closure")
    _add_format(q)
    q.set_defaults(func=cmd_fc_closure)

    q = fc_sub.add_parser("find", help="find a term for a unary table")
    q.add_argument("--target", required=True, metavar="t:_,b:_,n:_,f:_",
                   help="target table in t/b/n/f names, e.g. t:f,b:b,n:n,f:t")
    _add_format(q)
    _add_option(q)
    q.set_defaults(func=cmd_fc_find)

    p = sub.add_parser("options", help="option-reading tables and comparisons")
    opt_sub = p.add_subparsers(dest="options_command", required=True,
                               metavar="subcommand")

    q = opt_sub.add_parser("table", help="print an option's connective tables")
    _add_format(q)
    _add_option(q)
    q.set_defaults(func=cmd_options_table)

    q = opt_sub.add_parser("compare", help="compare matrix and clause evaluation")
    q.add_argument("formula")
    _add_format(q)
    _add_cap(q)
    _add_option(q)
    q.set_defaults(func=cmd_options_compare)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        cfg = _config_from(args)
        return args.func(args, cfg)
    except ParseError as exc:
        print(f"cnl4: parse error: {exc}", file=sys.stderr)
        return 3
    except ProofFormatError as exc:
        print(f"cnl4: proof format error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"cnl4: proof file is not valid JSON: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cnl4: cannot read input: {exc}", file=sys.stderr)
        return 3
    except DerivationError as exc:
        print(f"cnl4: check failed: {exc}", file=sys.stderr)
        return 2
    except (UsageError, CapExceededError, UnboundVariableError, ValueError) as exc:
        print(f"cnl4: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(run())
