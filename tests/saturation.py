"""The exact remainder of the entangling-power bound, shared by the tests.

Let ``n = d1 d2``, ``a = min(d1, d2)`` and ``C = C_{d1} C_{d2}``.  Split each
row and column index of ``U`` into its ``(d1, d2)`` pair, ``U[(i, j), (k, l)]``.
``G0`` is the ``a^2 x a^2`` Gram of the rearrangement ``A0`` taken on the
smaller side: ``A0 A0^dag`` with ``A0[(i, k), (j, l)]`` when ``d1 <= d2``,
``A0^dag A0`` otherwise.  ``T1 = A1 A1^dag`` with ``A1[(j, k), (i, l)]`` is
``n x n``.  Then

    upper_bound - e = C (delta0 + delta1),
    delta0 = ||G0 - (n / a^2) 1||^2,    delta1 = ||T1 - 1||^2.

Proof: ``tr G0 = tr T1 = n`` and ``||G0|| = ||T0||``, so ``||T0||^2 = n^2 / a^2
+ delta0`` and ``||T1||^2 = n + delta1``; substitute into ``I0 = n d2 +
||T0||^2`` and ``I1 = n d1 + ||T1||^2``.  So ``e`` reaches the bound exactly when
``A1`` is unitary and ``A0`` is flat; for ``d1 = d2`` that makes ``U``
2-unitary, an AME(4, d) state (Goyeneche et al., PRA 92, 032316 (2015)).
"""

import numpy as np


def deltas(matrix: np.ndarray, d1: int, d2: int) -> tuple[float, float]:
    """``(delta0, delta1)`` of one ``(d1 d2) x (d1 d2)`` unitary, by plain ``einsum``."""
    n, a = d1 * d2, min(d1, d2)
    u = np.asarray(matrix).reshape(d1, d2, d1, d2)
    if d1 <= d2:
        g0 = np.einsum("ijkl,pjql->ikpq", u, u.conj()).reshape(a * a, a * a)
    else:
        g0 = np.einsum("ijkl,iqkp->jlqp", u.conj(), u).reshape(a * a, a * a)
    t1 = np.einsum("ijkl,ipql->jkpq", u, u.conj()).reshape(n, n)
    return (float(np.linalg.norm(g0 - (n / a**2) * np.eye(a * a)) ** 2),
            float(np.linalg.norm(t1 - np.eye(n)) ** 2))


def remainder(matrix: np.ndarray, d1: int, d2: int) -> float:
    """``C_{d1} C_{d2} (delta0 + delta1)``, which equals ``upper_bound - e``."""
    c = 1.0 / (d1 * (d1 + 1)) / (d2 * (d2 + 1))
    return c * sum(deltas(matrix, d1, d2))
