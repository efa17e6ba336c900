"""A weighted complex projective 2-design in every dimension, shared by the tests.

In dimension ``d`` the design puts weight ``1/(d+1)`` on the ``d`` basis
vectors, shared equally, and weight ``d/(d+1)`` on the ``3^(d-1)`` flat
vectors ``(1, w^k1, ..., w^k(d-1)) / sqrt d``, ``w = exp(2 pi i / 3)``, shared
equally.  Its fourth moments are Haar's: ``E|psi_x|^4 = 2/(d(d+1))`` and
``E|psi_x|^2 |psi_y|^2 = 1/(d(d+1))`` for ``x != y``; the flat vectors' phase
terms ``w^(2k)`` cancel because 2 is not 0 mod 3, and the moments with one
index repeated three times or with three distinct indices vanish likewise.

The closed form's group-theoretic step uses the product-state distribution
only through each factor's second moment ``E[|psi><psi|^(x)2]``, so the product of
two such designs gives ``e(U)`` as a finite weighted sum, and so does a
design over one factor for :func:`entpow.partial_ep`.

A complete set of ``d + 1`` mutually unbiased bases is a 2-design with equal
weights (Klappenecker & Rötteler, 2005), so over the products of two such
sets ``e(U)`` is a plain average.  Complete sets are written out here at
``d = 2`` and at odd prime ``d`` (Wootters & Fields, 1989).
"""

import itertools

import numpy as np

from entpow import ep_on_states


def two_design(d: int) -> list[tuple[float, np.ndarray]]:
    """The design in dimension ``d`` as ``(weight, states)`` groups: states share their group's weight."""
    phases = np.exp(2j * np.pi / 3 * np.array(list(itertools.product(range(3), repeat=d - 1))))
    flat = np.hstack([np.ones((len(phases), 1)), phases.reshape(len(phases), d - 1)]) / np.sqrt(d)
    return [(1 / (d + 1), np.eye(d, dtype=complex)), (d / (d + 1), flat)]


def design_ep(gate) -> float:
    """``e(U)`` as the weighted sum of plain :func:`entpow.ep_on_states` calls over the design's product groups."""
    return sum(w1 * w2 * ep_on_states(gate, itertools.product(s1, s2))
               for w1, s1 in two_design(gate.d1) for w2, s2 in two_design(gate.d2))


def first_factor_ep(gate, psi2: np.ndarray) -> float:
    """The design average over the first factor of the output entropy, with ``psi2`` held fixed."""
    return sum(w * ep_on_states(gate, [(s, psi2) for s in states]) for w, states in two_design(gate.d1))


def mutually_unbiased_states(d: int) -> np.ndarray:
    """The states of ``d + 1`` mutually unbiased bases, ``d = 2`` or an odd prime, as ``(d (d + 1), d)`` rows.

    At ``d = 2``: the computational basis and the eigenbases of X and Y.  At odd
    prime ``d``: the computational basis and, for each ``k = 0..d-1``, the basis
    of the vectors ``(w^(k j^2 + m j) / sqrt d)_j``, ``m = 0..d-1``, ``w = exp(2 pi i / d)``.
    Rows ``b d`` to ``b d + d - 1`` are basis ``b``.
    """
    if d == 2:
        return np.vstack([np.eye(2), np.array([[1, 1], [1, -1], [1, 1j], [1, -1j]]) / np.sqrt(2)])
    j = np.arange(d)
    powers = (j[:, None, None] * j ** 2 + j[None, :, None] * j) % d    # [k, m, j], exact
    return np.vstack([np.eye(d), np.exp(2j * np.pi / d * powers).reshape(d * d, d) / np.sqrt(d)])


def mub_ep(gate) -> float:
    """``e(U)`` as one plain :func:`entpow.ep_on_states` call over every product of the two factors' MUB states."""
    return ep_on_states(gate, itertools.product(mutually_unbiased_states(gate.d1),
                                                mutually_unbiased_states(gate.d2)))
