"""Achievable rate regions of MISO interference networks under single-user
detection, via closed-form beamforming sweeps with independent verification
solvers."""

import importlib

from .numlin import (
    FeasibilityError,
    NumericalError,
    eig_hermitian,
    hermitize,
    project_psd,
    psd_check,
    unitary_completion,
)
from .rankone import CompletionInput, lemma5_bound, lemma5_complete
from .mreduce import (
    ReducedFrame,
    SphericalParams,
    best_rank_one_sweep,
    gamma_from_angles,
    lift_covariance,
    powers_closed_form,
    rank_one_table,
    reduce_interference_frame,
    spherical_rank_one,
)
from .region import (
    MisoNetwork,
    RegionSample,
    channel_angle,
    m_user_region,
    pareto_filter,
    pareto_hull,
    pareto_prune_samples,
    rate_from_sinr,
    single_user_max_surface,
    three_user_region,
    zf_point,
)
from .twouser import (
    RatePair,
    TwoUserChannel,
    cross_angles,
    fdm_beats_zf_condition,
    fdm_region,
    fdm_zf_threshold,
    interference_limited_region,
    max_signal_given_interference,
    scalar_sud_sum_rate,
    two_user_region,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionInput",
    "ConstrainedMaxProblem",
    "FeasibilityError",
    "MisoNetwork",
    "NumericalError",
    "OracleReport",
    "RatePair",
    "ReducedFrame",
    "RegionSample",
    "SphericalParams",
    "TwoUserChannel",
    "best_rank_one_sweep",
    "channel_angle",
    "cross_angles",
    "eig_hermitian",
    "fdm_beats_zf_condition",
    "fdm_region",
    "fdm_zf_threshold",
    "gamma_from_angles",
    "general_rank_solve",
    "hermitize",
    "interference_limited_region",
    "kkt_inertia_check",
    "lemma5_bound",
    "lemma5_complete",
    "lift_covariance",
    "m_user_region",
    "max_signal_given_interference",
    "pareto_filter",
    "pareto_hull",
    "pareto_prune_samples",
    "powers_closed_form",
    "project_psd",
    "psd_check",
    "rank_one_search",
    "rank_one_table",
    "rate_from_sinr",
    "reduce_interference_frame",
    "scalar_sud_sum_rate",
    "single_user_max_surface",
    "spherical_rank_one",
    "three_user_region",
    "two_user_region",
    "unitary_completion",
    "weighted_sum_boundary",
    "zf_point",
]

# The oracles need scipy; they load on first access (PEP 562), so that the
# region sweeps and the CLI import numpy alone.
_ORACLE_NAMES = frozenset({
    "ConstrainedMaxProblem",
    "OracleReport",
    "general_rank_solve",
    "kkt_inertia_check",
    "rank_one_search",
    "weighted_sum_boundary",
})


def __getattr__(name):
    if name in _ORACLE_NAMES or name == "oracle":
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
