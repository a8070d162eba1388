"""Large-deviation rate bounds for location-shift families.

Computes the two non-regular extensions of the classical estimation-rate
bound via small-shift asymptotics of Renyi divergences, evaluates their
closed form in the support-edge exponent, and verifies attainability by
simulating the matching estimators and regressing empirical tail-probability
exponents.
"""

from .bounds import BoundPair, alpha1_bar, alpha2_bar, bound_pair, coincidence, closed_form_bounds
from .estimators import EstimatorSpec, estimate, estimate_many
from .families import (DensityFamily, SampleBatch, cdf, fisher_information,
                       log_density, make_family, sample, score)
from .rates import (Alpha2Estimate, HoeffdingRate, HtSimResult,
                    InsufficientEventsError, OrderStatRates, TailRateEstimate,
                    WindowError, alpha2_estimate, chernoff_test_rate,
                    hoeffding_rate, ht_simulate, lr_rate_identity,
                    mc_tail_rate, mle_chernoff_rate, order_stat_rates)
from .renyi import (DivergenceError, RegimeInfo, RenyiCurve,
                    ScalingProfile, classify_regime, closed_form_isg, g_value,
                    kappa_of_g, profile_from_closed_form, profile_from_family,
                    renyi_curve, renyi_divergence)
from .special import beta_fn, digamma, l8_derivative, log_gamma, solve_t0
from .verify import LemmaCheck, run_checks

__version__ = "0.1.0"

__all__ = [
    "BoundPair", "alpha1_bar", "alpha2_bar", "bound_pair", "coincidence",
    "closed_form_bounds",
    "EstimatorSpec", "estimate", "estimate_many",
    "DensityFamily", "SampleBatch", "cdf", "fisher_information",
    "log_density", "make_family", "sample", "score",
    "Alpha2Estimate", "HoeffdingRate", "HtSimResult",
    "InsufficientEventsError", "OrderStatRates", "TailRateEstimate",
    "WindowError", "alpha2_estimate", "chernoff_test_rate", "hoeffding_rate",
    "ht_simulate", "lr_rate_identity", "mc_tail_rate", "mle_chernoff_rate",
    "order_stat_rates",
    "DivergenceError", "RegimeInfo", "RenyiCurve",
    "ScalingProfile", "classify_regime", "closed_form_isg", "g_value",
    "kappa_of_g", "profile_from_closed_form", "profile_from_family",
    "renyi_curve", "renyi_divergence",
    "beta_fn", "digamma", "l8_derivative", "log_gamma", "solve_t0",
    "LemmaCheck", "run_checks",
    "__version__",
]
