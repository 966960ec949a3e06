"""Bottleneck non-crossing matchings of points in convex position.

Find a perfect non-crossing matching minimizing the longest segment, in
O(n^2 + c*n + s*n^1.5) time for c candidates, s of which survive the
prunes (see `solver`), with an O(n^3) baseline and an exhaustive oracle
for cross-checking, plus instance generators, structural analysis, SVG
rendering and a CLI.
"""

from .baselines import cubic_solve, oracle_enumerate, oracle_solve
from .dp_core import SubproblemTable, build_subproblem_table, one_cascade_optimum, reconstruct
from .generators import GenSpec, gen_circle, gen_cluster3, gen_valtr, generate
from .geometry import (
    ConvexPointSet,
    Point,
    PolarityRegion,
    classify_polarity_region,
    sq_dist,
    turning_angle,
    validate_convex_ccw,
)
from .solver import CandidateDiagonal, Polarity, SolveReport, enumerate_candidates, solve
from .structure import (
    CascadeDecomposition,
    Matching,
    cascade_decomposition,
    classify_pairs,
    verify_matching,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateDiagonal",
    "CascadeDecomposition",
    "ConvexPointSet",
    "GenSpec",
    "Matching",
    "Point",
    "Polarity",
    "PolarityRegion",
    "SolveReport",
    "SubproblemTable",
    "build_subproblem_table",
    "cascade_decomposition",
    "classify_pairs",
    "classify_polarity_region",
    "cubic_solve",
    "enumerate_candidates",
    "gen_circle",
    "gen_cluster3",
    "gen_valtr",
    "generate",
    "one_cascade_optimum",
    "oracle_enumerate",
    "oracle_solve",
    "reconstruct",
    "solve",
    "sq_dist",
    "turning_angle",
    "validate_convex_ccw",
    "verify_matching",
]
