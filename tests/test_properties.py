"""Property-based checks of the closed form over d1, d2 <= 4 and seeds: invariances,
agreement with the dense oracle, the bounds ``0 <= e <= upper_bound``, and at 2x2 the
exact two-qubit reference of ``two_qubit.py``.

Examples are derandomized, so every run draws the same gates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import (Bipartition, SeedSpec, UnitaryGate, ep_closed, ep_dense_oracle, ep_value,
                    ep_values, haar_unitary, kron, make_basis_permutation, make_cnot,
                    make_identity, make_swap, upper_bound)

from two_qubit import cartan_gate, ep_cartan, ep_from_invariant

TOL = 1e-12
ORACLE_TOL = 1e-10

dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
checked = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def factor_swap(d1: int, d2: int) -> np.ndarray:
    """The permutation ``S |i, j> = |j, i>`` from C^d1 (x) C^d2 to C^d2 (x) C^d1."""
    s = np.zeros((d1 * d2, d1 * d2))
    for i in range(d1):
        for j in range(d2):
            s[j * d1 + i, i * d2 + j] = 1.0
    return s


@checked
@given(d1=dims, d2=dims, seed=seeds)
def test_adjoint_and_transpose(d1, d2, seed):
    part = Bipartition(d1, d2)
    u = haar_unitary(part.dim, SeedSpec(seed))
    value = ep_value(u, part)
    assert abs(ep_value(u.conj().T, part) - value) <= TOL
    assert abs(ep_value(u.T, part) - value) <= TOL


@checked
@given(d1=dims, d2=dims, seed=seeds)
def test_relabeling_the_factors(d1, d2, seed):
    u = haar_unitary(d1 * d2, SeedSpec(seed))
    s = factor_swap(d1, d2)
    assert abs(ep_value(s @ u @ s.T, Bipartition(d2, d1)) - ep_value(u, Bipartition(d1, d2))) <= TOL


@checked
@given(d1=dims, d2=dims, seed=seeds)
def test_bilocal_invariance(d1, d2, seed):
    part = Bipartition(d1, d2)
    base = SeedSpec(seed)
    u = haar_unitary(part.dim, base.substream(0))
    left = kron(haar_unitary(d1, base.substream(1)), haar_unitary(d2, base.substream(2)))
    right = kron(haar_unitary(d1, base.substream(3)), haar_unitary(d2, base.substream(4)))
    value = ep_value(u, part)
    assert abs(ep_value(left @ u, part) - value) <= TOL
    assert abs(ep_value(u @ right, part) - value) <= TOL
    assert abs(ep_value(left @ u @ right, part) - value) <= TOL


@checked
@given(d1=dims, d2=dims, seed=seeds)
def test_closed_form_equals_dense_oracle(d1, d2, seed):
    gate = UnitaryGate(haar_unitary(d1 * d2, SeedSpec(seed)), Bipartition(d1, d2))
    assert abs(ep_closed(gate).value - ep_dense_oracle(gate).value) <= ORACLE_TOL


@checked
@given(d1=dims, d2=dims, seed=seeds, data=st.data())
def test_between_zero_and_the_bound(d1, d2, seed, data):
    part = Bipartition(d1, d2)
    # basis permutations include the zeros (identity) and the largest values a table reaches
    table = data.draw(st.permutations(range(part.dim)))
    for u in (haar_unitary(part.dim, SeedSpec(seed)), make_basis_permutation(part, table).matrix):
        assert -TOL <= ep_value(u, part) <= upper_bound(part) + TOL


@checked
@given(d=dims, seed=seeds)
def test_swap_invariance(d, seed):
    part = Bipartition(d, d)
    u = haar_unitary(part.dim, SeedSpec(seed))
    swap = make_swap(d).matrix
    value = ep_value(u, part)
    assert abs(ep_value(swap @ u, part) - value) <= TOL
    assert abs(ep_value(u @ swap, part) - value) <= TOL


P22 = Bipartition(2, 2)
angles = st.floats(min_value=0.0, max_value=np.pi)


@checked
@given(seed=seeds)
def test_two_qubit_value_from_the_makhlin_invariant(seed):
    u = haar_unitary(4, SeedSpec(seed))
    assert abs(ep_from_invariant(u) - ep_value(u, P22)) <= TOL


def test_two_qubit_invariant_on_named_gates():
    gates = [make_cnot(), make_swap(2), make_identity(P22)]
    values = ep_values(np.stack([g.matrix for g in gates]), P22)
    for gate, value in zip(gates, values):
        assert abs(ep_from_invariant(gate.matrix) - value) <= TOL
    assert abs(values[0] - 2 / 9) <= TOL


@checked
@given(c1=angles, c2=angles, c3=angles)
def test_two_qubit_value_in_cartan_coordinates(c1, c2, c3):
    u = cartan_gate(c1, c2, c3)
    assert abs(ep_cartan(c1, c2, c3) - ep_value(u, P22)) <= TOL
    assert abs(ep_from_invariant(u) - ep_value(u, P22)) <= TOL
