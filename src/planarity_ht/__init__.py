"""Level and radial level planarity testing via XOR constraint systems over GF(2),
with combinatorial even-crossings witness drawings."""

from .constraints import (
    Assignment,
    ConstraintSystem,
    FlagVar,
    PairVar,
    ReferenceSets,
    TripleVar,
    build_level_full,
    build_level_reduced,
    build_radial_full,
    build_radial_reduced,
    choose_reference_sets,
    evaluate,
)
from .drawing import (
    CrossingReport,
    LevelDrawing,
    RadialDrawing,
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    count_crossings_level,
    count_crossings_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
)
from .graphs import CriticalPair, LevelGraph, Limits, critical_pairs, limits, properize, validate
from .oracle import OracleResult, brute_level, brute_radial
from .pipeline import check_level, check_radial, solve_reduced
from .starform import build_plus, build_star_level, build_star_radial
from .xorsat import Sat, Unsat, XorSystem, rank, solve

__version__ = "0.1.0"
