"""Commutativity of upper triangular morphisms of the free monoid {a,b}*.

The package decides whether two such morphisms commute, explains why
through a structural case classification, exposes the infinite fixed-point
word and its gap sequence, and verifies every structural claim against a
brute-force composition oracle over an exhaustive sweep space.
"""
from .words import (
    EMPTY,
    MAX_COUNT,
    BeyondBudget,
    CountOverflow,
    ParseError,
    Word,
    b_core,
    concat,
    take_prefix,
    words_commute,
)
from .morphisms import (
    BinaryMorphism,
    BOnly,
    Core,
    IDENTITY,
    MorphMatrix,
    NotUpperTriangular,
    TriangularForm,
    apply,
    compose,
    format_morphism,
    is_nonsingular,
    matrix,
    parse_morphism,
    power,
    to_triangular,
)
from .numtheory import (
    Dependent,
    Independent,
    MultDependence,
    integer_root,
    mult_dependence,
    primitive_root,
    val_and_digit,
)
from .omega import (
    NotApplicable,
    OmegaUndefined,
    gap,
    gap_sequence,
    gap_sequence_direct,
    omega_eventually_periodic,
    omega_prefix,
    right_tail,
)
from .classifier import (
    CASES,
    CommutationReport,
    a_conjugates,
    classify,
    direct_commute,
)
from .freeness import Relation, SearchAborted, find_relation, matrix_collision
from .sweep import SweepConfig, SweepResult, enumerate_morphisms, run_sweep

__version__ = "0.1.0"
