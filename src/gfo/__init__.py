"""Modeling kernel and consistency checker for process-object worlds.

Worlds of processes, presentials and continuants are declared in the
`.gfo` language over exact rational time, then checked against the axioms
(kind disjointness, object-process integration, presential dependence)
and queried for function realizations and truth-makers.
"""

from . import checker, chrono, dsl, errors, functions, model, truthmakers

__version__ = "0.1.0"

# the package's public names, and its only export list: each named once under
# the module defining it
_EXPORTS = (
    (chrono, "Chronoid TimeBoundary coord coord_str make_chronoid inner_boundary left_boundary"
             " right_boundary coincides meets temporal_part_chronoid"),
    (model, "Model Presential Process Continuant Fact Situation PropertyDef ValueDomain Support"
            " Kind classify process_boundary snapshot process_temporal_part"),
    (checker, "Violation IntegrationWitness check_disjointness check_integration derive_process"
              " complete_integration check_presential_dependence detect_continuant_changes"
              " detect_process_changes"),
    (functions, "FactPattern PropertyConstraint SituationConcept FunctionSpec RealizationRecord"
                " satisfies_concept is_actual_realization is_universal_realization executes"
                " is_actual_realizer check_fitem"),
    (truthmakers, "AtTime DuringSpan FactProp HoldsProp TruthMakerTriple SupportClass satisfies"
                  " find_truthmakers has_propositional_property classify_property_support"
                  " functional_property"),
    (dsl, "parse parse_file serialize parse_query ParseError ParseDiagnostic SourceSpan"),
)

__all__ = ["errors"]
for _module, _names in _EXPORTS:
    __all__ += _names.split()
    globals().update((name, getattr(_module, name)) for name in _names.split())
del _module, _names
