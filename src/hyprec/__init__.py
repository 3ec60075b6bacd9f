"""Recurrence relations for weighted Gauss hypergeometric series.

Coefficients of (1 - theta*x)^p F(a,b;c;x) and ln(1-x) F(a,b;c;x) by
recurrence, certified against an exact-rational convolution oracle, plus the
Schur m-power convexity analysis of the hypergeometric mean they enable.
"""

from .coeffrec import (
    CoeffSequence,
    LogProductSpec,
    Method,
    WeightedSeriesSpec,
    cauchy_oracle,
    format_number,
    hyp_series_coeffs,
    p_minus1_identity_residual,
    partial_sum,
    u_general,
    u_theta_minus1,
    u_theta_plus1,
    v_log_product,
    published_recurrence_pair,
)
from .errors import DomainError, HyprecError, NonConvergence, ParameterError
from .hypergeom import (
    EvalResult,
    HypParams,
    euler_transform_eval,
    gauss_value_at_one,
    hyp2f1,
    hyp2f1_derivative,
    zero_balanced_asymptote,
)
from .numkit import QuadResult, central_diff, rel_with_floor, weighted_quad
from .schurmean import (
    GmScanReport,
    MeanParams,
    Region,
    RegionLabel,
    RegionTriple,
    classify_region,
    classify_region_fuzzed,
    g_m,
    g_m_alt,
    g_m_series_reduction_residual,
    gamma_inequality_margin,
    gm_sign_scan,
    mean_quadrature,
    mean_series,
    q_p0_dn_sequence,
    q_p0_profile,
    schur_condition_sample,
    schur_grid_scan,
    q_params_for_mean,
)
from .specfn import EULER_GAMMA, beta, digamma, ln_gamma, pochhammer, r_zero_balanced
from .verify import verify_driver

__version__ = "0.1.0"
