"""Bottleneck non-crossing matchings of points in convex position.

Find a perfect non-crossing matching minimizing the longest segment, in
O(n^2 + c + s*n^1.5) time for the c candidate diagonals the interval
table lists, s of which survive the prunes (see `solver`), with an O(n^3)
baseline and an exhaustive oracle for cross-checking, plus instance
generators, structural analysis, SVG rendering and a CLI.
"""

from .baselines import cubic_solve, oracle_solve
from .dp_core import SubproblemTable, build_subproblem_table, one_cascade_optimum, reconstruct
from .generators import GenSpec, gen_circle, gen_cluster3, gen_valtr, generate
from .geometry import ConvexPointSet, validate_convex_ccw
from .solver import CandidateDiagonal, SolveReport, enumerate_candidates, solve
from .structure import (
    CascadeDecomposition,
    Matching,
    cascade_decomposition,
    verify_matching,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateDiagonal",
    "CascadeDecomposition",
    "ConvexPointSet",
    "GenSpec",
    "Matching",
    "SolveReport",
    "SubproblemTable",
    "build_subproblem_table",
    "cascade_decomposition",
    "cubic_solve",
    "enumerate_candidates",
    "gen_circle",
    "gen_cluster3",
    "gen_valtr",
    "generate",
    "one_cascade_optimum",
    "oracle_solve",
    "reconstruct",
    "solve",
    "validate_convex_ccw",
    "verify_matching",
]
