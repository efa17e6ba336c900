import importlib.util
from pathlib import Path

import entpow

#: the public surface of entpow; a name added or removed here is an API change
PUBLIC = [
    "Bipartition", "DimensionError", "EntanglingPowerReport", "Histogram", "KrausFamily",
    "OptimizeResult", "ResourceLimitError", "SeedSpec", "UnitaryGate",
    "ValidationError", "clock_matrix", "ep_closed", "ep_dense_oracle", "ep_monte_carlo",
    "ep_on_states", "ep_value", "ep_values", "exhaustive_permutation_max", "haar_gate",
    "haar_mean", "haar_state", "haar_unitary", "kraus_from_unitary", "kron", "linear_entropy",
    "load_gate", "make_additive_permutation", "make_basis_permutation", "make_bilocal",
    "make_cnot", "make_controlled_family", "make_identity", "make_swap", "maximize_ep",
    "pair_exchange", "partial_ep", "partial_ep_bound", "sample_q",
    "save_gate", "shift_matrix", "swap_symmetric_ep", "unitality_gap", "upper_bound",
]

#: removed names: partial_trace and max_linear_entropy had no caller, product_state_pair is
#: product_state_block with count 1, antisym_projector_13 is (1 - T13)/2 from pair_exchange,
#: monotonicity_score gave way to the exact two-qubit density in tests/two_qubit.py, and
#: OptimizeConfig's four settings are maximize_ep's own arguments
REMOVED = ["OptimizeConfig", "antisym_projector_13", "max_linear_entropy", "monotonicity_score",
           "partial_trace", "product_state_pair"]


def test_public_surface_is_exactly_the_listed_names():
    assert len(PUBLIC) == 43
    assert sorted(entpow.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(entpow, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert not hasattr(entpow, name), name


def test_benchmark_patch_targets_resolve():
    # bench/spans.py traces a run by patching these module bindings; a binding that is
    # unused inside entpow must still stay, or the benchmark loses a layer
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attr in spans.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
