"""Abel functions of analytic maps via truncated Bell/Carleman linear systems.

The package assembles the coefficient-wise linear system of the Abel equation
alpha(f(x)) = alpha(x) + 1, solves its N-by-N truncations over increasing N,
and watches each coefficient for stabilization. For the affine family
b*(x+s) - s it also provides the closed-form solutions, the induced
polynomial approximation of log_b, and fractional iteration through either
Abel function.
"""

from .affine import (
    AffineParams,
    GapReport,
    LogApproxPoly,
    affine_series,
    beta_direct,
    beta_polynomial,
    beta_recurrence,
    binom_tail,
    eval_log_poly,
    log_poly,
    onpow_identity,
    reference_log,
    remainder,
    remainder_bound,
    s_invariance_gap,
)
from .carleman import AbelSystem, BellMatrix, abel_system, bell_matrix
from .errors import (
    BracketError,
    DomainError,
    RootOfUnityError,
    SingularSystemError,
    ZeroShiftError,
)
from .iterate import (
    IterationContext,
    exact_log_context,
    fractional_iterate,
    poly_abel_context,
    semigroup_check,
)
from .powerseries import (
    TruncatedSeries,
    exp_shift_series,
    from_json_dict,
    pad,
    series_compose,
    series_mul,
)
from .scalars import PrecisionConfig, format_scalar
from .solver import (
    StabilizationConfig,
    SweepReport,
    Verdict,
    abel_residual,
    classify_trajectory,
    intuitive_sweep,
    solve_truncated,
)

__version__ = "0.1.0"

__all__ = [
    "AbelSystem",
    "AffineParams",
    "BellMatrix",
    "BracketError",
    "DomainError",
    "GapReport",
    "IterationContext",
    "LogApproxPoly",
    "PrecisionConfig",
    "RootOfUnityError",
    "SingularSystemError",
    "StabilizationConfig",
    "SweepReport",
    "TruncatedSeries",
    "Verdict",
    "ZeroShiftError",
    "abel_residual",
    "abel_system",
    "affine_series",
    "bell_matrix",
    "beta_direct",
    "beta_polynomial",
    "beta_recurrence",
    "binom_tail",
    "classify_trajectory",
    "eval_log_poly",
    "exact_log_context",
    "exp_shift_series",
    "format_scalar",
    "fractional_iterate",
    "from_json_dict",
    "intuitive_sweep",
    "log_poly",
    "onpow_identity",
    "pad",
    "poly_abel_context",
    "reference_log",
    "remainder",
    "remainder_bound",
    "s_invariance_gap",
    "semigroup_check",
    "series_compose",
    "series_mul",
    "solve_truncated",
    "__version__",
]
