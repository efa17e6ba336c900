"""Exact two-qubit reference for the entangling power, shared by the tests.

For two qubits ``e(U) = (2/9)(1 - |G1(U)|)``, where ``G1 = tr^2(m) / (16 det U)``
is Makhlin's local invariant, ``m = U_B^T U_B`` and ``U_B`` is ``U`` in the magic
basis (Makhlin, QIP 1, 243 (2002); the identity is in Balakrishnan &
Sankaranarayanan, PRA 82, 034301 (2010)).  In the Cartan form
``U = k1 exp(i/2 (c1 XX + c2 YY + c3 ZZ)) k2`` with local ``k1``, ``k2``,

    G1 = cos^2 c1 cos^2 c2 cos^2 c3 - sin^2 c1 sin^2 c2 sin^2 c3
         + (i/4) sin 2c1 sin 2c2 sin 2c3,

and the Haar measure has density ``|prod_{j<k} sin(c_j + c_k) sin(c_j - c_k)|``
in ``c`` (Zhang et al., PRA 67, 042313 (2003)).  Both are invariant under the
Weyl group, so a midpoint quadrature over the cube ``[0, pi)^3`` gives the exact
distribution of ``e`` over Haar-random two-qubit gates, with no sampling.
"""

import numpy as np

#: columns are the magic basis; XX, YY and ZZ are diagonal in it
MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)

#: Pauli X, Y and Z
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))

#: midpoints per axis of the quadrature grid; 160 puts the CDF within 4e-4 of a 240 grid
GRID_POINTS = 160

#: Kolmogorov-Smirnov critical value of sqrt(N) * sup|F_N - F| at level 0.001
KS_CRITICAL_001 = 1.949


def ep_from_invariant(u: np.ndarray) -> float:
    """``(2/9)(1 - |tr^2(m)| / (16 |det U|))`` for a 4x4 unitary ``u``."""
    ub = MAGIC.conj().T @ u @ MAGIC
    m = ub.T @ ub
    return 2 / 9 * (1 - abs(np.trace(m)) ** 2 / (16 * abs(np.linalg.det(u))))


def cartan_gate(c1: float, c2: float, c3: float) -> np.ndarray:
    """``exp(i/2 (c1 XX + c2 YY + c3 ZZ))``."""
    h = sum(c * np.kron(p, p) for c, p in zip((c1, c2, c3), PAULIS))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(0.5j * w)) @ v.conj().T


def ep_cartan(c1, c2, c3):
    """``(2/9)(1 - |G1(c)|)``; broadcasts over array arguments."""
    re = (np.cos(c1) * np.cos(c2) * np.cos(c3)) ** 2 - (np.sin(c1) * np.sin(c2) * np.sin(c3)) ** 2
    im = 0.25 * np.sin(2 * c1) * np.sin(2 * c2) * np.sin(2 * c3)
    return 2 / 9 * (1 - np.hypot(re, im))


def haar_weight(c1, c2, c3):
    """Unnormalized Haar density in Cartan coordinates; broadcasts over array arguments."""
    return np.abs(np.sin(c1 + c2) * np.sin(c1 - c2) * np.sin(c1 + c3) * np.sin(c1 - c3)
                  * np.sin(c2 + c3) * np.sin(c2 - c3))


def cartan_grid(n: int = GRID_POINTS):
    """Yield ``(e, w)`` on the ``n^3`` midpoint grid over ``[0, pi)^3``, a slab of ``c1`` at a time."""
    c = (np.arange(n) + 0.5) * np.pi / n
    c2, c3 = np.meshgrid(c, c, indexing="ij", sparse=True)
    for c1 in np.array_split(c, 10):
        c1 = c1[:, None, None]
        yield ep_cartan(c1, c2, c3), haar_weight(c1, c2, c3)


def exact_mean(n: int = GRID_POINTS) -> float:
    """Haar mean of ``e`` at 2x2 by quadrature."""
    sums = np.array([((e * w).sum(), w.sum()) for e, w in cartan_grid(n)]).sum(axis=0)
    return float(sums[0] / sums[1])


def exact_bin_probabilities(edges: np.ndarray, n: int = GRID_POINTS) -> np.ndarray:
    """Haar probability that ``e`` falls in each bin ``[edges[k], edges[k+1])``."""
    probs = np.zeros(len(edges) - 1)
    total = 0.0
    for e, w in cartan_grid(n):
        probs += np.histogram(e, bins=edges, weights=w)[0]
        total += w.sum()
    return probs / total


def ks_gap(counts: np.ndarray, probs: np.ndarray) -> float:
    """Largest gap between the empirical and the reference CDF at the bin edges."""
    return float(np.abs(np.cumsum(counts) / counts.sum() - np.cumsum(probs)).max())
