"""Workbench for a four-valued logic: matrix semantics over {1, i, j, 0}
with designated {1, i}, natural deduction with hypothesis discharge,
relational option readings, and functional-completeness verification.

``import cnl4`` loads no layer: each public name, and each submodule,
is imported on first use (PEP 562) and then kept in this namespace.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them, in ``__all__`` order.
_EXPORTS = {
    "formula": (
        "And", "Atom", "Formula", "Neg", "Or", "ParseError", "Sequent",
        "format_formula", "format_sequent", "parse", "parse_sequent",
        "sequent_variables", "substitute", "variables"),
    "matrix": (
        "AND", "CANONICAL_ORDER", "DESIGNATED", "NEG", "OR", "WITNESS_ORDER",
        "CapExceededError", "UnboundVariableError", "Value", "Verdict",
        "conj", "countermodel", "disj", "evaluate", "interpretations",
        "is_consequence", "is_designated", "neg", "truth_table"),
    "relational": (
        "FDE_ORDER", "OPTIONS", "EquivalenceReport", "FdeValue",
        "OptionReading", "TruthSet", "check_option_equivalence",
        "correspond", "get_option", "option_table_lines", "option_tables",
        "rel_consequence", "rel_designated", "rel_eval"),
    "nd": (
        "CheckedSequent", "CorpusEntry", "Derivation", "DerivationError",
        "ProofFormatError", "Rule", "check", "corpus", "from_json_dict",
        "render_derivation", "search", "soundness_check", "to_json_dict"),
    "fc": (
        "BinaryTable", "ClosureResult", "DeltaCReport",
        "ReservedVariableError", "SlupeckiReport", "UnaryTable",
        "find_term_for_unary", "fn_of_unary_term", "is_essentially_binary",
        "slupecki_check", "unary_clone_closure", "verify_delta_c"),
}
_SUBMODULES = (*_EXPORTS, "engine")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
