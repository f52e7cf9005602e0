"""Entropy-rate bounds for time-varying wireless networks.

The network is a temporal soft random geometric graph: nodes uniform in a
unit-area domain, each edge an independent two-state Markov chain driven by
Rayleigh fading once conditioned on the pair distance.  The package computes
analytic upper/lower bounds on the network entropy rate, validates them
against an exact single-edge block-entropy oracle, and cross-checks both
against a seeded Monte Carlo simulator.
"""

from .channel import (
    ChannelParams,
    connection_probability,
    level_crossing_rate,
    slow_fading_report,
)
from .entropy import (
    BlockEntropyResult,
    EdgeMoments,
    EntropyRateBounds,
    block_entropy_oracle,
    block_entropy_profile,
    edge_moments,
    entropy_rate_bounds,
)
from .geometry import (
    DISK,
    DOMAIN_NAMES,
    SQUARE,
    TRIANGLE,
    DistanceDensity,
    Domain,
    domain_from_name,
)
from .quadrature import QuadratureError, QuadratureSpec, integrate_piecewise
from .simulator import (
    SimConfig,
    TrajectoryEnsemble,
    TrajectoryTally,
    empirical_block_entropy,
    empirical_transition_frequencies,
    simulate,
    stationarity_check,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "connection_probability",
    "level_crossing_rate",
    "slow_fading_report",
    "BlockEntropyResult",
    "EdgeMoments",
    "EntropyRateBounds",
    "block_entropy_oracle",
    "block_entropy_profile",
    "edge_moments",
    "entropy_rate_bounds",
    "DISK",
    "DOMAIN_NAMES",
    "SQUARE",
    "TRIANGLE",
    "DistanceDensity",
    "Domain",
    "domain_from_name",
    "QuadratureError",
    "QuadratureSpec",
    "integrate_piecewise",
    "SimConfig",
    "TrajectoryEnsemble",
    "TrajectoryTally",
    "empirical_block_entropy",
    "empirical_transition_frequencies",
    "simulate",
    "stationarity_check",
]
