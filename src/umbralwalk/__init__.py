"""umbralwalk: exact verification engine for random-walk hitting-time
generating functions and the higher-order Bernoulli/Euler polynomial
identities they encode.

Layers, bottom up: exact rational power series (`series`), higher-order
polynomials and Chebyshev weights (`polynomials`), moment symbols and
their rewrite rules (`umbral`), hitting-time transforms and their
renewal recursion (`loopcalc`), the identity catalog and verifier
(`identities`), and a deterministic Monte Carlo cross-check
(`montecarlo`). The `cli` module ties them together.
"""

from .series import (
    ExactScalar,
    Kernel,
    OrderMismatchError,
    ConstantTermError,
    PowerSeries,
    as_scalar,
    geometric_resum,
    kernel,
    kernel_power,
    ps_div,
    ps_mul,
    to_csv,
)
from .polynomials import (
    Poly,
    bernoulli_number,
    chebyshev_polynomial,
    chebyshev_recip_weights,
    euler_number,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from .umbral import (
    Family,
    QuadratureError,
    QuadratureParams,
    SymbolBlock,
    UmbralExpr,
    cancel_pairs,
    density_moment,
    split_bernoulli,
    umbral_moment,
)
from .loopcalc import (
    InvalidMoveError,
    InvalidSystemError,
    LevelSystem,
    PhiMove,
    Walk,
    chain_mgf,
    decomposition_residual,
    direct_mgf,
    phi,
)
from .identities import (
    IdentityId,
    IdentityParams,
    IdentityReport,
    InvalidParamsError,
    Status,
    TruncationPolicy,
    catalog,
    eval_lhs,
    eval_rhs_partial,
    errata_report,
    expected_verified_cases,
    known_discrepancy_cases,
    rhs_term,
    rhs_terms,
    stated_audit_cases,
    verify,
    verify_all_payload,
)
from .montecarlo import (
    ComparisonReport,
    ConfigError,
    HittingEstimate,
    WalkConfig,
    compare_closed_form,
    eval_phi_numeric,
    simulate_hit,
    simulate_taboo,
)

__version__ = "0.1.0"
