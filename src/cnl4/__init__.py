"""Workbench for a four-valued logic: matrix semantics over {1, i, j, 0}
with designated {1, i}, natural deduction with hypothesis discharge,
relational option readings, and functional-completeness verification.

``import cnl4`` loads no layer: each public name, and each submodule,
is imported on first use (PEP 562) and then kept in this namespace;
reading one public name binds every public name of its group.
"""

import importlib

__version__ = "0.1.0"

#: The public names in ``__all__`` order, in groups by the module that
#: defines them.  ``search`` is its own group, so that reading a name of
#: ``nd`` never loads ``prove``.
_EXPORTS = (
    ("formula", (
        "And", "Atom", "Formula", "Neg", "Or", "ParseError", "Sequent",
        "format_formula", "format_sequent", "parse", "parse_sequent",
        "sequent_variables", "substitute", "variables")),
    ("matrix", (
        "AND", "CANONICAL_ORDER", "DESIGNATED", "NEG", "OR", "WITNESS_ORDER",
        "CapExceededError", "UnboundVariableError", "Value", "Verdict",
        "conj", "countermodel", "disj", "evaluate", "interpretations",
        "is_consequence", "is_designated", "neg", "truth_table")),
    ("relational", (
        "FDE_ORDER", "OPTIONS", "EquivalenceReport", "FdeValue",
        "OptionReading", "TruthSet", "check_option_equivalence",
        "correspond", "get_option", "option_table_lines", "option_tables",
        "rel_consequence", "rel_designated", "rel_eval")),
    ("nd", (
        "CheckedSequent", "CorpusEntry", "Derivation", "DerivationError",
        "ProofFormatError", "Rule", "check", "corpus", "from_json_dict",
        "render_derivation")),
    ("prove", ("search",)),
    ("nd", ("soundness_check", "to_json_dict")),
    ("fc", (
        "BinaryTable", "ClosureResult", "DeltaCReport",
        "ReservedVariableError", "SlupeckiReport", "UnaryTable",
        "find_term_for_unary", "fn_of_unary_term", "is_essentially_binary",
        "slupecki_check", "unary_clone_closure", "verify_delta_c")),
)
_SUBMODULES = (*dict(_EXPORTS), "engine")

__all__ = [name for _, names in _EXPORTS for name in names]


def _bind(namespace: dict, layer: str, names: tuple[str, ...]) -> None:
    """Import ``cnl4.<layer>`` and bind ``names`` from it in ``namespace``,
    keeping any name already bound (a wrapper installed over it stays)."""
    # __import__, unlike importlib.import_module, is listed by -X importtime
    module = getattr(__import__(f"{__name__}.{layer}"), layer)
    for name in names:
        namespace.setdefault(name, getattr(module, name))


def _lazy_getattr(namespace: dict, groups: tuple[tuple[str, tuple[str, ...]], ...]):
    """A module ``__getattr__`` (PEP 562) that binds all of a group's
    ``names``, taken from its ``layer``, in ``namespace`` when one of them
    is first read; ``groups`` holds ``(layer, names)`` pairs."""
    def __getattr__(name: str) -> object:
        for layer, names in groups:
            if name in names:
                _bind(namespace, layer, names)
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    return __getattr__


_export = _lazy_getattr(globals(), _EXPORTS)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    return _export(name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
