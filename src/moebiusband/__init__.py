"""Discrete paper Moebius bands: generators, margin checkers and
effective-bound verifiers for nearly-optimal aspect ratios."""

from .band import (
    RuledBand,
    ValidationReport,
    WrinkleConfig,
    build_triangular,
    build_wrinkle,
    read_json,
    transform,
    validate,
    write_json,
)
from .bounds import (
    CurveGraphPair,
    MarginReport,
    PerturbedTriangle,
    graph_check,
    offset1_check,
    wiggle_check,
)
from .flatmodel import FlatTrapezoid
from .geom import (
    DEFAULT_TOL,
    RigidMotion,
    StructureError,
    ToleranceConfig,
    winding_number,
)
from .tpattern import (
    InvalidBandError,
    NoTPatternError,
    TPattern,
    find_tpattern,
    normalize_pose,
)
from .verify import (
    OutOfScopeError,
    PipelineState,
    TheoremReport,
    boundary_deviation,
    prepare,
    verify_all,
    verify_corollary,
    verify_eff,
    verify_eff2,
)

__version__ = "0.1.0"
