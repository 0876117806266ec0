"""Commutativity of upper triangular morphisms of the free monoid {a,b}*.

The package decides whether two such morphisms commute, explains why
through a structural case classification, exposes the infinite fixed-point
word and its gap sequence, and verifies every structural claim against a
brute-force composition oracle over an exhaustive sweep space.

Importing the package loads no submodule: each name below is imported from
its module on first access (PEP 562), so a command line call loads only the
modules its command runs.
"""
import importlib

# Each re-exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "EMPTY",
            "MAX_COUNT",
            "BeyondBudget",
            "CountOverflow",
            "ParseError",
            "SearchAborted",
            "Word",
            "a_conjugates",
            "b_core",
            "concat",
            "take_prefix",
            "words_commute",
        ),
        "words",
    ),
    **dict.fromkeys(
        (
            "BinaryMorphism",
            "BOnly",
            "Core",
            "IDENTITY",
            "MorphMatrix",
            "NotUpperTriangular",
            "TriangularForm",
            "apply",
            "compose",
            "direct_commute",
            "first_difference",
            "format_morphism",
            "is_nonsingular",
            "matrix",
            "parse_morphism",
            "power",
            "to_triangular",
        ),
        "morphisms",
    ),
    **dict.fromkeys(
        (
            "Dependent",
            "Independent",
            "MultDependence",
            "mult_dependence",
            "primitive_root",
            "val_and_digit",
        ),
        "numtheory",
    ),
    **dict.fromkeys(
        (
            "NotApplicable",
            "OmegaUndefined",
            "gap",
            "gap_sequence",
            "gap_sequence_direct",
            "omega_eventually_periodic",
            "omega_prefix",
            "right_tail",
        ),
        "omega",
    ),
    **dict.fromkeys(("CASES", "CommutationReport", "classify"), "classifier"),
    **dict.fromkeys(("Relation", "find_relation", "matrix_collision"), "freeness"),
    **dict.fromkeys(("SweepConfig", "SweepResult", "enumerate_morphisms", "run_sweep"), "sweep"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
