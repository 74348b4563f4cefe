"""Colourings of integer intervals that realize every k-subset of n colours
as the colour set of some arithmetic progression: exact counting machinery,
a verifier, a randomized certified builder, probability bounds, and an exact
minimal-length solver."""

from .combinatorics import (
    FAMILY_SIZE_LIMIT,
    ColorSet,
    ColorSetView,
    PairIntersectionCounts,
    Progression,
    count_intersecting_pairs,
    count_progressions,
    hi_upper_bounds,
)
from .coverage import (
    Coloring,
    CoverageReport,
    VerifyResult,
    WitnessView,
    covered_family,
    format_coloring,
    parse_coloring_text,
    verify_cover,
)
from .construct import (
    ConstructParams,
    ConstructResult,
    ConstructTrace,
    RoundRecord,
    block_length,
    construct_cover,
    make_rng,
    min_alpha,
    rounds,
)
from .bounds import (
    BoundsReport,
    EstimateResult,
    bonferroni_lower_bound,
    compute_bounds_report,
    estimate_cover_probability,
    lower_bound_N,
    upper_bound_length,
)
from .exact import (
    DEFAULT_NODE_BUDGET,
    ExactResult,
    SearchConfig,
    ac_exact,
    exists_cover,
)
from .errors import (
    BudgetExceededError,
    ColoringFormatError,
    FamilySizeError,
    ParameterError,
    RoundsExhaustedError,
)

__version__ = "0.1.0"
