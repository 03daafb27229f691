"""Modeling kernel and consistency checker for process-object worlds.

Worlds of processes, presentials and continuants are declared in the
`.gfo` language over exact rational time, then checked against the axioms
(kind disjointness, object-process integration, presential dependence)
and queried for function realizations and truth-makers.
"""

__version__ = "0.1.0"

# the package's public names, and its only export list: each named once under
# the module defining it
_EXPORTS = (
    ("errors", "errors"),  # the module itself
    ("chrono", "Chronoid TimeBoundary coord coord_str make_chronoid inner_boundary left_boundary"
               " right_boundary coincides meets temporal_part_chronoid"),
    ("model", "Model Presential Process Continuant Fact Situation PropertyDef ValueDomain Support"
              " Kind classify process_boundary snapshot process_temporal_part"),
    ("checker", "Violation IntegrationWitness check_disjointness check_integration derive_process"
                " complete_integration check_presential_dependence detect_continuant_changes"
                " detect_process_changes"),
    ("model", "FactPattern PropertyConstraint SituationConcept FunctionSpec"),
    ("functions", "RealizationRecord satisfies_concept is_actual_realization"
                  " is_universal_realization executes is_actual_realizer check_fitem"),
    ("truthmakers", "AtTime DuringSpan FactProp HoldsProp TruthMakerTriple SupportClass satisfies"
                    " find_truthmakers has_propositional_property classify_property_support"
                    " functional_property"),
    ("dsl", "parse parse_file serialize parse_query ParseError ParseDiagnostic SourceSpan"),
)
__all__ = " ".join(names for _, names in _EXPORTS).split()


def __getattr__(name: str):
    """Import a public name's module on the name's first use, and keep the name."""
    for home, names in _EXPORTS:
        if name in names.split():
            from importlib import import_module
            module = import_module(f"{__name__}.{home}")
            return globals().setdefault(name, module if name == home else getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
