"""The bound as an identity: ``upper_bound - e = C_{d1} C_{d2} (delta0 + delta1)``.

``delta0`` and ``delta1`` are computed in ``saturation.py`` by plain ``einsum``,
apart from the closed-form kernel.  Hypothesis examples are derandomized, so
every run draws the same gates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import (Bipartition, SeedSpec, ep_value, haar_unitary, make_additive_permutation,
                    make_basis_permutation, make_cnot, make_swap, upper_bound)

from saturation import deltas, remainder

TOL = 1e-12

seeds = st.integers(min_value=0, max_value=2**32 - 1)
checked = settings(max_examples=25, deadline=None, derandomize=True, database=None)


# every shape up to 4x4, the 1xN and Nx1 ones (bound 0) among them, on Haar gates and on
# basis permutations, which reach both the bound and 0
@pytest.mark.parametrize("d1, d2", [(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5)])
@checked
@given(seed=seeds, data=st.data())
def test_the_gap_to_the_bound_is_the_remainder(d1, d2, seed, data):
    part = Bipartition(d1, d2)
    table = data.draw(st.permutations(range(part.dim)))
    for u in (haar_unitary(part.dim, SeedSpec(seed)), make_basis_permutation(part, table).matrix):
        assert abs(upper_bound(part) - ep_value(u, part) - remainder(u, d1, d2)) <= TOL


@pytest.mark.parametrize("d", [3, 5])
def test_additive_permutations_are_two_unitary(d):
    assert deltas(make_additive_permutation(d).matrix, d, d) == (0.0, 0.0)


def test_cnot_and_swap_fall_short_of_the_bound():
    part = Bipartition(2, 2)
    delta0, delta1 = deltas(make_cnot().matrix, 2, 2)
    assert delta0 > 0 and delta1 == 0     # A1 is unitary, A0 is not flat
    swap = make_swap(2).matrix
    assert ep_value(swap, part) == 0.0
    delta0, delta1 = deltas(swap, 2, 2)
    assert delta0 == 0 and delta1 > 0     # A0 is flat, A1 is not unitary
    assert abs(remainder(swap, 2, 2) - upper_bound(part)) <= TOL

