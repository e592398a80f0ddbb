"""Exact-arithmetic toolkit for truncated Sullivan minimal models.

Everything runs over the rationals with no floating point anywhere:
positive-weight detection, one-parameter automorphism families and their
induced cohomology actions, bigraded models built from cohomology tables,
and growth/flexibility numerics, plus the ``rht`` command-line front end.

Importing the package loads no submodule: each public name below imports
the submodule that defines it on first access (PEP 562), so a caller pays
only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("Element", "FreeGCA", "Generator"),
    "cohomology": (
        "ActionReport", "CochainComplex", "CohomologyReport",
        "DiagonalizationCertificate", "FlexibilityReport",
        "WeightDecompositionReport", "cohomology", "complex_for",
        "diagonalization_certificate", "flexibility_report", "homology_action",
        "induced_action", "weight_decomposition",
    ),
    "errors": (
        "AmbientMismatchError", "DegreeRangeError", "FamilyError",
        "HomogeneityError", "SchemaError",
        "SingularMapError", "ToolkitError",
    ),
    "families": (
        "EvaluatedFamily", "ModelAutomorphism", "ModelMap", "OneParameterFamily",
        "compose_families", "conjugate", "diagonal_family", "evaluate",
        "load_automorphism", "load_family", "parse_automorphism", "parse_family",
        "serialize_automorphism", "serialize_family", "transport_presentation",
        "verify_family",
    ),
    "formal": ("FormalModelResult", "build_formal_model", "verify_formal_result"),
    "growth": (
        "CONDITIONAL_NOTE", "GrowthReport", "dil_exponent", "growth_exponent",
        "growth_report",
    ),
    "model": (
        "BasisClass", "GradedAlgebraTable", "SullivanPresentation", "Violation",
        "load_presentation", "load_table", "parse_presentation", "parse_table",
        "serialize_presentation", "serialize_table",
    ),
    "scalars": ("Laurent",),
    "weights": (
        "WeightAssignment", "WeightReport", "check_weights",
        "extract_constraints", "find_weights",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    # `cohomology` names a submodule and its function; the module is callable
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
