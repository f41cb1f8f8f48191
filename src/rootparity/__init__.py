"""Parity sequences of consecutive primitive roots modulo a prime.

Construction, exact statistical and cryptographic quality measures
(balance, pattern distribution, linear and 2-adic complexity), bound
checks, reference-table reproduction and prime search.
"""

from .bounds import EtaProfile, classify_eta, predicted_balance_fracs, predicted_pattern_frac
from .complexity import (
    ComplexityReport,
    InconsistencyError,
    c_lower_bound,
    epsilon_of,
    full_report,
    lc_lower_bound,
    linear_complexity_bm,
    linear_complexity_gcd,
    s_one,
    two_adic_complexity,
)
from .numtheory import (
    FactorizationInfo,
    euler_phi,
    factorize,
    is_mersenne_prime,
    is_prime,
    multiplicative_order,
    primitive_roots,
    smallest_mersenne_factor,
    verify_mersenne_factor,
)
from .search import (
    ScanCriteria,
    SearchRow,
    largest_p_for_T,
    reproduce_table1,
    reproduce_table2,
    scan,
)
from .sequence import (
    BalanceReport,
    BitSequence,
    PatternReport,
    PrimeContext,
    balance,
    block_count,
    build_context,
    build_s_sequence,
    build_t_sequence,
    cz_bound_check,
    pattern_stats,
)

__version__ = "0.1.0"
