"""Property-based checks of the invariances of the closed form over d1, d2 <= 4 and seeds.

Examples are derandomized, so every run draws the same gates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import Bipartition, SeedSpec, ep_value, haar_unitary, kron

TOL = 1e-12

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
