"""Perfect sampling and approximate counting of linear extensions of finite
partial orders: a weighted adjacent-transposition chain, coupling from the
past over a bounding chain, a continuous embedding, and a nested-family
contraction estimator, with exact oracles and bit/comparison accounting."""

from .bitrng import BitStream, StepDraw
from .chain import BetaParam, chain_step, max_displacement, weight
from .cftp import (
    THETA,
    CftpStats,
    bounding_chain_step,
    bounds,
    generate,
    initial_bound,
    perfect_sample,
    validate_bounding_state,
)
from .embed import ceil_perm, distance, in_family, lift
from .errors import (
    CoalescenceError,
    CycleError,
    GuardError,
    LinextError,
    ParseError,
)
from .exact import (
    KernelMatrix,
    chain_kernel,
    count_exact,
    enumerate_extensions,
    partition_z,
    stationarity_gap,
)
from .poset import (
    Poset,
    Relabeling,
    canonicalize,
    close_transitively,
    load_poset,
    parse_poset,
)
from .tpa import (
    PoissonReport,
    TpaRunResult,
    TwoPhaseEstimate,
    interval_tpa,
    phase1_runs,
    phase2_runs,
    poisson_diagnostics,
    product_estimator,
    tpa_runs,
    two_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParam", "BitStream", "CftpStats", "CoalescenceError", "CycleError",
    "GuardError", "KernelMatrix", "LinextError", "ParseError", "PoissonReport",
    "Poset", "Relabeling", "StepDraw", "THETA", "TpaRunResult",
    "TwoPhaseEstimate", "bounding_chain_step", "bounds", "canonicalize",
    "ceil_perm", "chain_kernel", "chain_step", "close_transitively",
    "count_exact", "distance", "enumerate_extensions", "generate",
    "in_family", "initial_bound", "interval_tpa", "lift", "load_poset",
    "max_displacement", "parse_poset", "partition_z", "perfect_sample",
    "phase1_runs", "phase2_runs", "poisson_diagnostics", "product_estimator",
    "stationarity_gap", "tpa_runs", "two_phase", "validate_bounding_state",
    "weight",
]
