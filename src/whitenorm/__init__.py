"""Culler-Shalen seminorms, parabolic representations and verification
suites for Dehn fillings of the Whitehead link exterior."""

from .config import TOL, Tolerances
from .laurent import LaurentPoly, sylvester_resultant_t
from .reps import (
    EigenTuple,
    GroupWord,
    Mat2,
    PRep,
    all_prep_classes,
    count_prep_classes,
    reconstruct_prep,
)
from .respq import ResPoly, build_res
from .roots import RootSet, classify, nontrivial_roots, resultant_roots
from .seminorm import (
    SeminormProfile,
    SlopeRange,
    evaluate_norm,
    seifert_character_counts,
    seminorm_profile,
    solve_linear_system,
)
from .slopes import Slope, distance
from .verify import SUITES, run_verify

__all__ = [
    "TOL",
    "Tolerances",
    "LaurentPoly",
    "sylvester_resultant_t",
    "ResPoly",
    "build_res",
    "RootSet",
    "resultant_roots",
    "nontrivial_roots",
    "classify",
    "Mat2",
    "GroupWord",
    "EigenTuple",
    "PRep",
    "reconstruct_prep",
    "count_prep_classes",
    "all_prep_classes",
    "Slope",
    "SlopeRange",
    "distance",
    "SeminormProfile",
    "seminorm_profile",
    "evaluate_norm",
    "seifert_character_counts",
    "solve_linear_system",
    "SUITES",
    "run_verify",
]

__version__ = "0.1.0"
