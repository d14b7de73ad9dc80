"""Command-line front end.

One verb per library capability: formula parsing and evaluation, truth
tables, consequence checking with countermodels, proof checking and
search, the bundled derivation corpus, functional-completeness reports,
and the option-reading tables.

``_VERBS`` states each verb once, and a run builds only the parser of the verb
it invokes; help, a bare group and an unknown verb get the whole tree.

``run`` settles every command-line input first (:func:`_settle`), so each
verb takes parsed values and only computes.  It returns ``(code, record,
text)``: its exit code, its JSON record and its text.  ``run`` writes the
one ``--format`` names, so a verb writes to stdout only through ``run``.  Either may be an iterator
of rendered chunks (a truth table has 4**n rows); a verb raises any refusal
before it returns, and ``run`` encodes any other record as a stream.

Exit codes: 0 success/valid; 1 semantically invalid (a countermodel was
found and printed); 2 check or verification failure; 3 usage, parse,
input or output error; 4 internal error (a bug, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from . import _bind, _lazy_getattr
from .formula import (
    Formula,
    ParseError,
    format_formula,
    format_sequent,
    parse,
    parse_sequent,
    variables,
)

#: The names this module takes from each layer but ``formula``.  Each verb
#: names its layers in its ``_VERBS`` row, and ``run`` loads them before the
#: verb runs; ``__getattr__`` loads them for a caller that reads ``cli.<name>``
#: first, such as a tracer that replaces the function with a wrapper
#: (``truth_table`` is bound for such callers only).
_LAYER_NAMES = {
    "matrix": ("CANONICAL_ORDER", "DEFAULT_CAP", "CapExceededError", "UnboundVariableError",
               "Value", "countermodel", "evaluate", "is_consequence", "truth_rows", "truth_table"),
    "nd": ("DerivationError", "ProofFormatError", "check", "corpus", "derivation_sequent",
           "from_json_dict", "render_derivation", "to_json_dict"),
    "prove": ("search",),
    "fc": ("UnaryTable", "find_term_for_unary", "unary_clone_closure", "verify_delta_c"),
    "relational": ("FdeValue", "OPTIONS", "check_option_equivalence", "get_option",
                   "option_table_lines"),
}


def _load(*layers: str) -> None:
    """Import each layer and bind its names here (see :func:`cnl4._bind`)."""
    for layer in layers:
        _bind(globals(), layer, _LAYER_NAMES[layer])


__getattr__ = _lazy_getattr(globals(), tuple(_LAYER_NAMES.items()))


class UsageError(Exception):
    """Bad invocation: reported on stderr with exit code 3."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # failed checks, so usage errors leave with 3 instead
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _parse_bindings(pairs: list[str], names: list[str]) -> dict[str, Value]:
    assignment: dict[str, Value] = {}
    for pair in pairs:
        name, sep, symbol = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"bindings look like p=1, got {pair!r}")
        if name not in names:
            raise UsageError(f"variable {name!r} does not occur in the formula")
        if name in assignment:
            raise UsageError(f"variable {name!r} is bound more than once")
        try:
            assignment[name] = Value(symbol)
        except ValueError:
            raise UsageError(f"unknown truth value {symbol!r} in {pair!r} "
                             f"(use 1, i, j, 0)") from None
    return assignment


def _parse_fde_table(text: str, option_id: str) -> UnaryTable:
    """The matrix table that ``text``, a table over t/b/n/f, is under the option's map."""
    mapping: dict[FdeValue, FdeValue] = {}
    for part in text.split(","):
        source, sep, target = part.partition(":")
        if not sep:
            raise UsageError(f"target entries look like t:f, got {part!r}")
        try:
            key, value = FdeValue(source.strip()), FdeValue(target.strip())
        except ValueError:
            raise UsageError(f"unknown value in {part!r} (use t, b, n, f)") from None
        if key in mapping:
            raise UsageError(f"target table gives {key} more than once")
        mapping[key] = value
    missing = [w.value for w in FdeValue if w not in mapping]
    if missing:
        raise UsageError(f"target table is missing {', '.join(missing)}")
    value_map = get_option(option_id).value_map
    inverse = {w: v for v, w in value_map.items()}
    return UnaryTable(tuple(inverse[mapping[value_map[v]]] for v in CANONICAL_ORDER))


def _settle(args: argparse.Namespace) -> None:
    """Turn the verb's inputs into the values it computes with, in place, refusing
    them in this order: settings (--cap from the flag, then CNL4_CAP, then the
    default; --depth), the formula or sequent, the bindings or target.  A value
    prints as ``value_name`` names it: as itself, or under --fde by the option's map."""
    if "cap" in args:
        if args.cap is None:
            env = os.environ.get("CNL4_CAP")
            try:
                args.cap = DEFAULT_CAP if env is None else int(env)
            except ValueError:
                raise UsageError(f"CNL4_CAP must be an integer, got {env!r}") from None
        if args.cap < 1:
            raise UsageError("cap must be at least 1")
    if "depth" in args and args.depth < 1:
        raise UsageError("depth must be at least 1")
    if "formula" in args:
        args.formula = parse(args.formula)
    if "sequent" in args:
        args.sequent = parse_sequent(args.sequent)
    if "bindings" in args:
        args.bindings = _parse_bindings(args.bindings, variables(args.formula))
    if "target" in args:
        args.target = _parse_fde_table(args.target, args.option or "O1")
    args.value_name = attrgetter("_value_")  # not ``.value``, a Python-level property
    if "fde" in args and args.fde:
        _load("relational")
        value_map = get_option(args.option or "O1").value_map
        args.value_name = {v: w.value for v, w in value_map.items()}.__getitem__


#: What a verb returns: its exit code, its JSON record and its text; ``run``
#: writes the one ``--format`` names, and nothing for ``None``.
_Result = tuple[int, object, str | Iterator[str] | None]

_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _assignment_json(inter: dict[str, Value], name: Callable[[Value], str]) -> dict[str, str]:
    return {atom: name(v) for atom, v in inter.items()}


def _assignment_str(assignment: Mapping[str, object]) -> str:
    return ", ".join(f"{name}={assignment[name]}" for name in sorted(assignment))


def _tree(f: Formula) -> dict:
    tree = {"type": type(f).__name__.lower()}
    for name, field in zip(f._fields, f[1:]):
        tree[name] = field if isinstance(field, str) else _tree(field)
    return tree


# --------------------------------------------------------------------------
# Subcommands

def cmd_parse(args: argparse.Namespace) -> _Result:
    f = args.formula
    text = format_formula(f)
    return 0, {"formula": text, "variables": variables(f), "tree": _tree(f)}, text


def cmd_eval(args: argparse.Namespace) -> _Result:
    f, assignment, name = args.formula, args.bindings, args.value_name
    value = name(evaluate(f, assignment))
    return 0, {"formula": format_formula(f), "assignment": _assignment_json(assignment, name),
               "value": value}, value


def _json_rows(record: dict, rows: Iterable[tuple[dict, Value]],
               name: Callable[[Value], str]) -> Iterator[str]:
    """``record`` and its "rows", encoded as ``run`` encodes a record, a row per chunk in
    place of a placeholder row (``null`` alone on a line, which no string can be).  Each row
    fills its encoded values into one row shape, encoded with every value ``null``."""
    head, tail = _JSON.encode({**record, "rows": [None]}).split("\n    null\n")
    shape = _JSON.encode({"assignment": dict.fromkeys(record["variables"]), "value": None})
    row = shape.replace("\n", "\n    ").replace(": null", ": %s")  # no atom holds ": "
    order = sorted(record["variables"])  # as sort_keys orders the keys
    encoded = {v: _JSON.encode(name(v)) for v in CANONICAL_ORDER}.__getitem__
    yield head
    for i, (inter, value) in enumerate(rows):
        values = (*map(encoded, map(inter.__getitem__, order)), encoded(value))
        yield (",\n    " if i else "\n    ") + row % values
    yield "\n" + tail + "\n"


def cmd_truthtable(args: argparse.Namespace) -> _Result:
    f, name = args.formula, args.value_name
    rows = truth_rows(f, args.cap)  # refuses a formula over the cap before any row
    atoms, text = variables(f), format_formula(f)
    # a row per interpretation (4**n): both renderings read the one row iterator
    # lazily, a row at a time, and ``run`` consumes only the one it writes
    record = _json_rows({"formula": text, "variables": atoms}, rows, name)
    return 0, record, chain([" ".join(atoms) + " | " + text + "\n"],
                            (" ".join(name(inter[atom]) for atom in atoms) + " | " + name(value)
                             + "\n" for inter, value in rows))


def cmd_conseq(args: argparse.Namespace) -> _Result:
    verdict = is_consequence(args.sequent, args.cap)
    record = {"sequent": format_sequent(args.sequent), "valid": verdict.valid,
              "countermodel": None, "checked": verdict.checked}
    if verdict.valid:
        return 0, record, "valid"
    record["countermodel"] = model = _assignment_json(verdict.witness, args.value_name)
    return 1, record, "invalid\ncountermodel: " + _assignment_str(model)


def cmd_countermodel(args: argparse.Namespace) -> _Result:
    witness = countermodel(args.sequent, args.cap)
    model = None if witness is None else _assignment_json(witness, args.value_name)
    record = {"sequent": format_sequent(args.sequent), "countermodel": model}
    if model is None:
        return 0, record, "none (sequent is valid)"
    return 1, record, _assignment_str(model)


def cmd_check_proof(args: argparse.Namespace) -> _Result:
    with open(args.file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:  # the decoder recurses per nested array or object
            raise ProofFormatError("proof file nested too deeply to read") from None
    derivation = from_json_dict(data)
    try:
        checked = check(derivation)
    except DerivationError as exc:
        if args.format == "text":  # text reports a failed check on stderr only
            print(f"check failed: {exc}", file=sys.stderr)
        return 2, {"ok": False, "error": {"rule": exc.rule.value if exc.rule else None,
                                          "path": list(exc.path),
                                          "message": exc.message}}, None
    conclusion = format_formula(checked.conclusion)
    open_assumptions = sorted(format_formula(f) for f in checked.open_assumptions)
    return 0, {"ok": True, "conclusion": conclusion, "open_assumptions": open_assumptions}, (
        f"ok\nconclusion: {conclusion}\n"
        f"open assumptions: {', '.join(open_assumptions) or '(none)'}")


def cmd_search_proof(args: argparse.Namespace) -> _Result:
    derivation = search(args.sequent, args.depth)
    if derivation is not None:
        return 0, {"found": True, "derivation": to_json_dict(derivation)}, (
            render_derivation(derivation))
    _load("matrix")  # search loads matrix only if it reached a case split
    try:  # within the default cap, tell an invalid sequent from a miss
        witness = is_consequence(args.sequent).witness
    except CapExceededError:
        witness = None
    record = {"found": False, "depth": args.depth}
    if witness is None:
        return 2, record, f"no derivation found within depth {args.depth}"
    record["countermodel"] = model = _assignment_json(witness, args.value_name)
    return 1, record, "invalid\ncountermodel: " + _assignment_str(model)


def cmd_corpus(args: argparse.Namespace) -> _Result:
    entries = corpus()
    sequents = [format_sequent(derivation_sequent(e.derivation)) for e in entries]
    record = [{"name": e.name, "sequent": s, "derivation": to_json_dict(e.derivation)}
              for e, s in zip(entries, sequents)]
    return 0, record, "\n".join(f"{e.name}: {s}" for e, s in zip(entries, sequents))


def cmd_fc_verify(args: argparse.Namespace) -> _Result:
    report = verify_delta_c()
    lines = [f"{c.term_name}({c.argument}) = {c.actual}, "
             f"expected {c.expected}: {'ok' if c.ok else 'FAIL'}" for c in report.checks]
    passed = sum(1 for c in report.checks if c.ok)
    lines += [f"bool_neg table: {report.bool_neg_table} (derived)",
              f"{passed}/{len(report.checks)} checks passed"]
    record = {"ok": report.ok, "bool_neg_table": str(report.bool_neg_table),
              "checks": [{"term": c.term_name, "argument": c.argument.value,
                          "expected": c.expected.value, "actual": c.actual.value, "ok": c.ok}
                         for c in report.checks]}
    return 0 if report.ok else 2, record, "\n".join(lines)


def cmd_fc_closure(args: argparse.Namespace) -> _Result:
    result = unary_clone_closure()
    complete = result.size == 256
    code = 0 if complete else 2
    # sorting and formatting the 256 witness terms takes about 5 ms, which text never shows
    if args.format == "json":
        witnesses = sorted(result.witnesses.items(), key=lambda kv: str(kv[0]))
        return code, {"size": result.size, "rounds": result.rounds, "complete": complete,
                      "witnesses": [{"table": str(table), "term": format_formula(term)}
                                    for table, term in witnesses]}, None
    return code, None, (f"tables reached: {result.size}\nrounds: {result.rounds}\n"
                        "complete: " + ("yes (all 256 unary functions)" if complete else "NO"))


def cmd_fc_find(args: argparse.Namespace) -> _Result:
    term = format_formula(find_term_for_unary(args.target))
    return 0, {"found": True, "target": str(args.target), "term": term}, (
        f"{term}\ntable: {args.target}")


def cmd_options_table(args: argparse.Namespace) -> _Result:
    ids = [args.option] if args.option else list(OPTIONS)
    record = {option_id: option_table_lines(get_option(option_id)) for option_id in ids}
    blocks = ["\n".join(lines) for lines in record.values()]
    if len(ids) > 1:
        blocks = [f"option {option_id}\n{block}" for option_id, block in zip(ids, blocks)]
    return 0, record, "\n\n".join(blocks)


def cmd_options_compare(args: argparse.Namespace) -> _Result:
    ids = [args.option] if args.option else list(OPTIONS)
    reports = [check_option_equivalence(get_option(i), args.formula, args.cap) for i in ids]
    lines = []
    for r in reports:
        if r.ok:
            lines.append(f"{r.option_id}: ok ({r.checked} interpretations)")
        else:
            m = r.mismatches[0]
            lines.append(f"{r.option_id}: MISMATCH at {_assignment_str(m.interpretation)}: "
                         f"map gives {m.via_map}, clauses give {m.via_clauses}")
    record = [{"option": r.option_id, "ok": r.ok, "checked": r.checked,
               "mismatches": [{"interpretation": {k: v.value for k, v in m.interpretation.items()},
                               "via_map": str(m.via_map), "via_clauses": str(m.via_clauses)}
                              for m in r.mismatches]}
              for r in reports]
    return 0 if all(r.ok for r in reports) else 2, record, "\n".join(lines)


# --------------------------------------------------------------------------
# Parser construction and dispatch

#: Each command path, its help, the layers ``run`` loads for it and its argument
#: names in help order; a group has ``None`` for arguments.  A verb's function is
#: ``cmd_`` and its path, with spaces and ``-`` as ``_``, read when the parser is built.
_VERBS: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...] | None], ...] = (
    ("parse", "parse a formula and reprint it", (), ("formula", "--format")),
    ("eval", "evaluate a formula under bindings like p=1", ("matrix",),
     ("formula", "bindings", "--format", "--option", "--fde")),
    ("truthtable", "print the full truth table", ("matrix",),
     ("formula", "--format", "--cap", "--option", "--fde")),
    ("conseq", "check a sequent like 'p, q |- p & q'", ("matrix",),
     ("sequent", "--format", "--cap", "--option", "--fde")),
    ("countermodel", "print the first countermodel, if any", ("matrix",),
     ("sequent", "--format", "--cap", "--option", "--fde")),
    ("check-proof", "check a JSON proof file", ("nd",), ("file", "--format")),
    ("search-proof", "bounded proof search for a sequent", ("nd", "prove"),
     ("sequent", "--depth", "--format")),
    ("corpus", "list the bundled derivations", ("nd",), ("--format",)),
    ("fc", "functional completeness tools", (), None),
    ("fc verify", "check the delta/C defining terms", ("fc",), ("--format",)),
    ("fc closure", "compute the unary clone closure", ("fc",), ("--format",)),
    ("fc find", "find a term for a unary table", ("matrix", "fc", "relational"),
     ("--target", "--format", "--option")),
    ("options", "option-reading tables and comparisons", (), None),
    ("options table", "print an option's connective tables", ("relational",),
     ("--format", "--option")),
    ("options compare", "compare matrix and clause evaluation", ("matrix", "relational"),
     ("formula", "--format", "--cap", "--option")),
)

#: ``add_argument``'s keyword arguments for each name that is not a plain positional.
_ARGUMENTS: dict[str, dict[str, object]] = {
    "--format": dict(choices=("text", "json"), default="text", help="output format (default text)"),
    "--cap": dict(type=int, default=None, metavar="N",
                  help="variable cap for enumeration (default 10, or CNL4_CAP)"),
    "--option": dict(choices=("O1", "O2", "O3", "O4"), default=None,
                     help="option reading (default O1)"),
    "--fde": dict(action="store_true", help="print values as t/b/n/f via the option's map"),
    "--depth": dict(type=int, default=6, metavar="N", help="maximum derivation height (default 6)"),
    "--target": dict(required=True, metavar="t:_,b:_,n:_,f:_",
                     help="target table in t/b/n/f names, e.g. t:f,b:b,n:n,f:t"),
    "bindings": dict(nargs="*", metavar="name=value"),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the leaf verb ``argv`` starts with, under its group if any, else
    the whole tree.  A subparser's help and errors read its own arguments only, and
    only an ``argv`` that invokes no leaf verb is answered with the verbs' list."""
    rows = [row for row in _VERBS if list(argv[:len(row[0].split())]) == row[0].split()]
    if all(arguments is None for *_, arguments in rows):  # no leaf verb: build them all
        rows = _VERBS
    parser = _ArgumentParser(prog="cnl4", description="four-valued logic workbench")
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar="command")}
    for path, summary, layers, arguments in rows:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=summary)
        if arguments is None:
            groups[path] = p.add_subparsers(dest=f"{path}_command", required=True,
                                            metavar="subcommand")
        else:
            for argument in arguments:
                p.add_argument(argument, **_ARGUMENTS.get(argument, {}))
            p.set_defaults(func=globals()["cmd_" + path.replace(" ", "_").replace("-", "_")],
                           layers=layers)
    return parser


#: How ``run`` reports an error a verb raises: the first row whose type
#: matches gives the message label and the exit code.  A JSONDecodeError
#: and a UnicodeDecodeError are also ValueErrors, so their rows come first.
#: The errors of ``matrix`` and ``nd`` are named, and match nothing until
#: a verb loads their layer.
_ERRORS: tuple[tuple[type[Exception] | str, str, int], ...] = (
    (ParseError, "parse error", 3),
    ("ProofFormatError", "proof format error", 3),
    (json.JSONDecodeError, "proof file is not valid JSON", 3),
    (OSError, "cannot read input", 3),
    ("DerivationError", "check failed", 2),
    (UsageError, "error", 3),
    ("CapExceededError", "error", 3),
    ("UnboundVariableError", "error", 3),
    (UnicodeDecodeError, "cannot read input", 3),
    (ValueError, "error", 3),
)


def _write(output: object, as_json: bool) -> bool:
    """Write a verb's output to stdout, flushed, and say whether that worked;
    a closed stdout (``None``) takes nothing."""
    if output is None or (out := sys.stdout) is None:
        return True
    if not isinstance(output, Iterator):
        output = chain(_JSON.iterencode(output), "\n") if as_json else (output, "\n")
    try:
        for chunk in output:
            out.write(chunk)
        out.flush()
    except OSError as exc:
        print(f"cnl4: cannot write output: {exc}", file=sys.stderr)
        if out is sys.__stdout__:  # else the flush at exit fails again and exits 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return False
    return True


def run(argv: list[str] | None = None) -> int:
    """Entry point: runs the verb, writes its result and returns the process
    exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        _load(*args.layers)
        _settle(args)
        code, record, text = args.func(args)
        if not _write(record if args.format == "json" else text, args.format == "json"):
            return 3
    except Exception as exc:
        for kind, label, code in _ERRORS:
            if isinstance(exc, globals().get(kind, ()) if isinstance(kind, str) else kind):
                print(f"cnl4: {label}: {exc}", file=sys.stderr)
                return code
        # a bug; never 1, which would claim a countermodel
        print(f"cnl4: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(run())
