"""Bandits with arm-dependent, heavy-tailed, partially observable delays.

Simulation environment, delay-patient index policies, reconstructed
baselines, hard-instance generators, and a Monte Carlo harness with
deterministic seeding.
"""

__version__ = "0.1.0"

from .distributions import (
    DELAY_LAWS,
    REWARD_LAWS,
    Bernoulli,
    Dirac,
    Geometric,
    ParetoCeil,
    PointMass,
    TwoPointMass,
    assumption1_margin,
    from_spec,
)
from .environment import (
    BanditInstance,
    DelayedBanditEnv,
    EpisodeComplete,
    ObservationView,
    PullRecord,
)
from .estimators import (
    AdaptParams,
    InsufficientDataError,
    UcbParams,
    UndefinedEstimatorError,
    alpha_bar,
    alpha_bar_activation,
    alpha_hat,
    bias_bound_oracle,
    confidence_radius,
    log_log_schedule,
    mu_hat,
    window_pair,
)
from .harness import (
    MonteCarloResult,
    RegretTrace,
    default_checkpoints,
    monte_carlo,
    run_episode,
    simulate,
    split_seed,
)
from .policies import (
    POLICIES,
    AdaptPatientBandits,
    DUcb,
    PatientBandits,
    Policy,
    UniformRandom,
    VanillaUcb,
)
from .theory import (
    LowerBoundPair,
    make_coupled_pair,
    make_lower_bound_pair,
    observable_mean,
)

__all__ = [
    "__version__",
    "Bernoulli", "PointMass", "Dirac", "ParetoCeil", "TwoPointMass", "Geometric",
    "assumption1_margin", "from_spec", "REWARD_LAWS", "DELAY_LAWS",
    "BanditInstance", "DelayedBanditEnv", "EpisodeComplete", "ObservationView",
    "PullRecord",
    "UcbParams", "AdaptParams", "mu_hat", "confidence_radius", "bias_bound_oracle",
    "alpha_hat", "alpha_bar", "alpha_bar_activation", "window_pair", "log_log_schedule",
    "UndefinedEstimatorError", "InsufficientDataError",
    "Policy", "PatientBandits", "AdaptPatientBandits", "DUcb", "VanillaUcb",
    "UniformRandom", "POLICIES",
    "RegretTrace", "MonteCarloResult", "split_seed", "default_checkpoints",
    "simulate", "run_episode", "monte_carlo",
    "LowerBoundPair", "make_lower_bound_pair", "make_coupled_pair", "observable_mean",
]
