"""Entangling power of bipartite unitary evolutions.

Compute, bound, sample, and maximize the mean linear entropy a unitary on a
``d1 x d2`` system produces from Haar-random product states.
"""

__version__ = "0.1.0"

from .channels import KrausFamily, kraus_from_unitary, partial_ep, partial_ep_bound, unitality_gap
from .errors import DimensionError, ResourceLimitError, ValidationError
from .gates import (GateSpec, clock_matrix, load_gate, make_additive_permutation,
                    make_basis_permutation, make_bilocal, make_cnot,
                    make_controlled_family, make_identity, make_swap, save_gate,
                    shift_matrix)
from .power import (EntanglingPowerReport, UnitaryGate, ep_closed, ep_dense_oracle,
                    ep_monte_carlo, ep_on_states, ep_value, ep_values, haar_gate, haar_mean,
                    linear_entropy, max_linear_entropy, swap_symmetric_ep, upper_bound)
from .sampling import SeedSpec, haar_state, haar_unitary, product_state_pair
from .search import OptimizeConfig, OptimizeResult, exhaustive_permutation_max, maximize_ep
from .spectrum import Histogram, monotonicity_score, sample_q
from .tensorops import Bipartition, antisym_projector_13, kron, pair_exchange, partial_trace

__all__ = [
    "Bipartition", "DimensionError", "EntanglingPowerReport", "GateSpec", "Histogram",
    "KrausFamily", "OptimizeConfig", "OptimizeResult", "ResourceLimitError", "SeedSpec",
    "UnitaryGate", "ValidationError", "antisym_projector_13", "clock_matrix",
    "ep_closed", "ep_dense_oracle", "ep_monte_carlo", "ep_on_states", "ep_value", "ep_values",
    "exhaustive_permutation_max", "haar_gate", "haar_mean", "haar_state", "haar_unitary",
    "kraus_from_unitary", "kron", "linear_entropy", "load_gate", "make_additive_permutation",
    "make_basis_permutation", "make_bilocal", "make_cnot", "make_controlled_family",
    "make_identity", "make_swap", "max_linear_entropy", "maximize_ep", "monotonicity_score",
    "pair_exchange", "partial_ep", "partial_ep_bound", "partial_trace", "product_state_pair",
    "sample_q", "save_gate", "shift_matrix", "swap_symmetric_ep", "unitality_gap",
    "upper_bound",
]
