"""The Monte Carlo kernel checked exactly: averages over product 2-designs are equalities.

``designs.py`` holds the weighted 2-design.  Averaged over its products, the
plain :func:`ep_on_states` equals :func:`ep_closed`, and over one factor it
equals :func:`partial_ep`, to within rounding.  The statistical tests
(criterion 2 and ``test_channels.py``) stay, because they also test the
samplers.
"""

import numpy as np
import pytest

from entpow import (Bipartition, SeedSpec, ep_closed, haar_gate, haar_state, kraus_from_unitary,
                    make_additive_permutation, make_cnot, make_controlled_family, make_identity,
                    make_swap, partial_ep, shift_matrix)

from designs import design_ep, first_factor_ep, mub_ep, mutually_unbiased_states, two_design

TOL = 1e-12

SHAPES = [(d1, d2) for d1 in range(1, 7) for d2 in range(1, 7)]

#: dimensions with a complete set of mutually unbiased bases in designs.py, and their shapes
MUB_DIMS = (2, 3, 5)
MUB_SHAPES = [(d1, d2) for d1 in MUB_DIMS for d2 in MUB_DIMS]

#: shapes for the partial_ep equalities, at d1 = d2 and on both sides of it
PARTIAL_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (1, 3), (4, 2)]


def named_gates():
    """``pytest.param``s of the named gates, each with its name as id."""
    gates = [("cnot", make_cnot())]
    for d in range(2, 7):
        shift = [np.linalg.matrix_power(shift_matrix(d), a) for a in range(d)]
        gates += [(f"swap-{d}", make_swap(d)), (f"controlled-clock-{d}", make_controlled_family(d)),
                  (f"controlled-shift-{d}", make_controlled_family(d, shift))]
    gates += [(f"additive-perm-{d}", make_additive_permutation(d)) for d in (3, 5)]
    gates += [(f"identity-{d1}x{d2}", make_identity(Bipartition(d1, d2)))
              for d1, d2 in [(1, 4), (2, 3), (3, 2), (6, 6)]]
    return [pytest.param(gate, id=name) for name, gate in gates]


@pytest.mark.parametrize("d", range(1, 7))
def test_the_design_has_the_haar_second_moment(d):
    # sum of w |psi><psi| (x) |psi><psi| = (1 + SWAP) / (d (d + 1)), as for Haar states
    moment = sum(w / len(states) * sum(np.kron(np.outer(v, v.conj()), np.outer(v, v.conj()))
                                       for v in states)
                 for w, states in two_design(d))
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    assert np.abs(moment - (np.eye(d * d) + swap) / (d * (d + 1))).max() <= TOL


@pytest.mark.parametrize("d1, d2", SHAPES)
def test_design_average_is_the_closed_form_on_a_haar_gate(d1, d2):
    gate = haar_gate(Bipartition(d1, d2), SeedSpec(77, 6 * d1 + d2))
    assert abs(design_ep(gate) - ep_closed(gate).value) <= TOL


@pytest.mark.parametrize("gate", named_gates())
def test_design_average_is_the_closed_form_on_named_gates(gate):
    assert abs(design_ep(gate) - ep_closed(gate).value) <= TOL


@pytest.mark.parametrize("d1, d2", PARTIAL_SHAPES)
def test_first_factor_design_average_is_partial_ep(d1, d2):
    gate = haar_gate(Bipartition(d1, d2), SeedSpec(78, 6 * d1 + d2))
    for k in range(3):
        psi2 = haar_state(d2, SeedSpec(79, k)).ravel()
        assert abs(first_factor_ep(gate, psi2) - partial_ep(kraus_from_unitary(gate, psi2))) <= TOL


@pytest.mark.parametrize("d1, d2", PARTIAL_SHAPES)
def test_design_average_of_partial_ep_over_the_fixed_state_is_e(d1, d2):
    gate = haar_gate(Bipartition(d1, d2), SeedSpec(80, 6 * d1 + d2))
    average = sum(w * np.mean([partial_ep(kraus_from_unitary(gate, s)) for s in states])
                  for w, states in two_design(d2))
    assert abs(average - ep_closed(gate).value) <= TOL


@pytest.mark.parametrize("d", MUB_DIMS)
def test_the_bases_are_mutually_unbiased(d):
    # |<x|y>|^2 is 1 or 0 within a basis and 1/d across two
    states = mutually_unbiased_states(d)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    assert states.shape == (d * (d + 1), d)
    assert np.abs(overlaps - (np.kron(np.eye(d + 1), np.eye(d) - 1 / d) + 1 / d)).max() <= TOL


@pytest.mark.parametrize("d1, d2", MUB_SHAPES)
def test_mub_average_is_the_closed_form_on_haar_gates(d1, d2):
    for k in range(3):
        gate = haar_gate(Bipartition(d1, d2), SeedSpec(81 + k, 6 * d1 + d2))
        assert abs(mub_ep(gate) - ep_closed(gate).value) <= TOL


@pytest.mark.parametrize("gate", [g for g in named_gates() if (g.values[0].d1, g.values[0].d2) in MUB_SHAPES])
def test_mub_average_is_the_closed_form_on_named_gates(gate):
    assert abs(mub_ep(gate) - ep_closed(gate).value) <= TOL
