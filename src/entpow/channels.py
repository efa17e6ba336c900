"""Completely positive maps obtained from a gate by fixing the second-factor input.

Slicing a unitary ``U`` on ``C^{d1} (x) C^{d2}`` along a fixed second-factor
state ``psi2`` yields Kraus operators ``A_j = <j|_2 U |psi2>_2`` of a
trace-preserving map on the first factor, together with the reshuffled family
``Atilde_i`` mapping the first factor into the second.  The average output
linear entropy over Haar inputs on the first factor has the closed form

    1 - C_{d1} (tr X^2 + tr Xtilde^2),
    X = sum_j A_j A_j^dag,   Xtilde = sum_i Atilde_i Atilde_i^dag,

and the deviations of ``X`` and ``Xtilde`` from multiples of the identity
diagnose how far the pair of maps is from joint unitality.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .power import UnitaryGate, _c, _frobenius2, _gram
from .tensorops import ATOL, unit_vector


@dataclass(eq=False)
class KrausFamily:
    """Kraus operators of the fixed-second-factor maps derived from one gate.

    ``a_ops`` is a read-only ``(d2, d1, d1)`` array of the operators ``A_j``;
    ``tilde_ops`` is its ``(d1, d2, d1)`` transposed view, the reshuffled
    operators ``Atilde_i`` (each ``d2 x d1``).  Both index, iterate and take
    ``len`` like lists of operators.  Completeness ``sum_j A_j^dag A_j = 1``
    is validated on construction.
    """

    a_ops: np.ndarray
    tilde_ops: np.ndarray
    source_gate: UnitaryGate
    fixed_state: np.ndarray

    @property
    def x_op(self) -> np.ndarray:
        """``X = sum_j A_j A_j^dag`` on the first factor; trace ``d1``."""
        return _gram(self.tilde_ops.reshape(1, len(self.tilde_ops), -1))[0]

    @property
    def x_tilde_op(self) -> np.ndarray:
        """``Xtilde = sum_i Atilde_i Atilde_i^dag`` on the second factor; trace ``d1``."""
        return _gram(self.a_ops.reshape(1, len(self.a_ops), -1))[0]


def kraus_from_unitary(gate: UnitaryGate, psi2: np.ndarray) -> KrausFamily:
    """Extract the Kraus families of the maps induced by fixing ``psi2``.

    Parameters
    ----------
    gate : UnitaryGate
        The bipartite unitary being sliced.
    psi2 : ndarray
        State of dimension ``d2`` and norm 1 (to within
        :data:`~entpow.tensorops.ATOL`) held fixed on the second factor.

    The slicing basis is the computational basis of the second factor; the
    derived trace functionals are basis independent.
    """
    d1, d2 = gate.d1, gate.d2
    psi2 = unit_vector(psi2, d2, "fixed state")

    u = gate.matrix.reshape(d1, d2, d1, d2)
    # a_ops[j, i, k] = <i j| U |k psi2>
    a_ops = np.tensordot(u, psi2, axes=([3], [0])).transpose(1, 0, 2)
    a_ops.setflags(write=False)
    tilde_ops = a_ops.transpose(1, 0, 2)

    completeness = (a_ops.conj().transpose(0, 2, 1) @ a_ops).sum(axis=0)
    defect = np.abs(completeness - np.eye(d1)).max()
    if defect > ATOL:
        raise ValidationError(f"Kraus completeness defect {defect:.3e} exceeds {ATOL:.1e}")
    return KrausFamily(a_ops=a_ops, tilde_ops=tilde_ops, source_gate=gate, fixed_state=psi2)


def partial_ep(k: KrausFamily) -> float:
    """Average output linear entropy of the map over Haar first-factor inputs.

    Equals ``1 - C_{d1} (tr Xtilde^2 + tr X^2)``; averaging it over Haar-random
    fixed states recovers the gate's full entangling power.
    """
    # X and Xtilde are Hermitian, so tr X^2 = ||X||_F^2
    tr_x2, tr_xt2 = (float(_frobenius2(x[None])[0]) for x in (k.x_op, k.x_tilde_op))
    return 1.0 - _c(k.source_gate.d1) * (tr_xt2 + tr_x2)


def partial_ep_bound(gate: UnitaryGate) -> float:
    """Largest value :func:`partial_ep` can take for any fixed state: (d1 - d1/d2)/(d1 + 1).

    Follows from ``tr X^2 >= d1`` and ``tr Xtilde^2 >= d1^2/d2``.  At
    ``d1 = d2`` it coincides with the gate-level upper bound; for unequal
    dimensions it can exceed it (only the fixed-state average is capped by the
    gate-level bound).
    """
    d1, d2 = gate.d1, gate.d2
    return (d1 - d1 / d2) / (d1 + 1)


def unitality_gap(k: KrausFamily) -> tuple[float, float]:
    """Frobenius distances of the two maps from unitality.

    Returns ``(|X/d1 - 1/d1|_F, |Xtilde/d1 - 1/d2|_F)``: how far each map
    sends the maximally mixed input from the maximally mixed output.  Both
    vanishing for every fixed state is what bound saturation requires.
    """
    d1, d2 = k.source_gate.d1, k.source_gate.d2
    gap1 = float(np.linalg.norm(k.x_op / d1 - np.eye(d1) / d1))
    gap2 = float(np.linalg.norm(k.x_tilde_op / d1 - np.eye(d2) / d2))
    return gap1, gap2
