"""Analytic identity suite runnable on demand (backs the ``verify`` command).

Every check is exact (tolerance :data:`entpow.tensorops.ATOL`, 1e-10, unless
stated) and independent of sampling noise: known gate values, agreement of
the closed form with the dense operator oracle, invariances under bilocal
composition and swaps, the range of the fixed-state map values, and the trace
identities of the exchange operators.
"""

from dataclasses import dataclass

import numpy as np

from .channels import kraus_from_unitary, partial_ep, partial_ep_bound
from .gates import make_additive_permutation, make_cnot, make_controlled_family, make_identity, make_swap
from .power import UnitaryGate, ep_closed, ep_dense_oracle, ep_value, haar_gate, swap_symmetric_ep, upper_bound
from .sampling import SeedSpec, haar_state, haar_unitary
from .tensorops import ATOL, Bipartition, kron, pair_exchange

#: master seed of the random gates the suite checks
SEED = SeedSpec(20260811)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, deviation: float, tol: float = ATOL) -> CheckResult:
    return CheckResult(name, deviation <= tol, f"deviation {deviation:.3e} (tol {tol:.1e})")


def run_self_checks(extra_gate: UnitaryGate | None = None) -> list[CheckResult]:
    """Run the full identity suite; returns one result per check."""
    results: list[CheckResult] = []
    stream = iter(range(10_000))

    def gate(part):
        return haar_gate(part, SEED.substream(next(stream)))

    def bilocal(part):   # u1 (x) u2 from the next two streams, u1 first
        return kron(*(haar_unitary(d, SEED.substream(next(stream))) for d in (part.d1, part.d2)))

    # fixed gate values
    results.append(_check("identity (3,3) entangles nothing",
                          abs(ep_closed(make_identity(Bipartition(3, 3))).value)))
    results.append(_check("swap (2,2) entangles nothing", abs(ep_closed(make_swap(2)).value)))
    results.append(_check("cnot value 2/9", abs(ep_closed(make_cnot()).value - 2 / 9)))
    for d in (2, 3, 4):
        results.append(_check(
            f"controlled clock family d={d} value d(d-1)/(d+1)^2",
            abs(ep_closed(make_controlled_family(d)).value - d * (d - 1) / (d + 1) ** 2)))
    for d in (3, 5):
        results.append(_check(
            f"additive permutation d={d} saturates the bound",
            abs(ep_closed(make_additive_permutation(d)).value - (d - 1) / (d + 1))))

    # exchange-operator trace identities
    for (d1, d2) in [(2, 2), (2, 3)]:
        part = Bipartition(d1, d2)
        t13 = pair_exchange(part, "T13")
        results.append(_check(f"tr T13 = d1 d2^2 at {part}", abs(np.trace(t13) - d1 * d2 * d2)))
        results.append(_check(
            f"tr T24 = d1^2 d2 at {part}",
            abs(np.trace(pair_exchange(part, "T24")) - d1 * d1 * d2)))
        results.append(_check(
            f"tr T13T24 = d1 d2 at {part}",
            abs(np.trace(pair_exchange(part, "T13T24")) - d1 * d2)))
        # (1 - T13)/2, the projector the dense oracle pairs against, is idempotent iff T13^2 = 1
        results.append(_check(f"T13 is an involution at {part}",
                              float(np.abs(t13 @ t13 - np.eye(t13.shape[0])).max())))

    # closed form vs dense operator oracle on random gates
    for (d1, d2) in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        part = Bipartition(d1, d2)
        worst = 0.0
        for _ in range(13):
            g = gate(part)
            worst = max(worst, abs(ep_closed(g).value - ep_dense_oracle(g).value))
        results.append(_check(f"closed form = dense oracle at {part} (13 gates)", worst))

    # invariances on random gates
    for (d1, d2) in [(2, 3), (3, 3)]:
        part = Bipartition(d1, d2)
        for _ in range(4):
            g = gate(part)
            base = ep_closed(g).value
            biloc = bilocal(part)
            left = ep_value(biloc @ g.matrix, part)
            right = ep_value(g.matrix @ biloc, part)
            results.append(_check(f"left bilocal invariance at {part}", abs(left - base)))
            results.append(_check(f"right bilocal invariance at {part}", abs(right - base)))
            if d1 == d2:
                swap = make_swap(d1).matrix
                results.append(_check(f"swap invariance at {part}",
                                      max(abs(ep_value(swap @ g.matrix, part) - base),
                                          abs(ep_value(g.matrix @ swap, part) - base))))
                results.append(_check(f"swap-symmetric form agrees at {part}",
                                      abs(swap_symmetric_ep(g) - base)))

    # fixed-state maps on random gates and states (kraus_from_unitary enforces completeness)
    for (d1, d2) in [(2, 2), (2, 3)]:
        part = Bipartition(d1, d2)
        worst = -np.inf
        for _ in range(5):
            g = gate(part)
            value = partial_ep(kraus_from_unitary(g, haar_state(d2, SEED.substream(next(stream)))))
            worst = max(worst, -value, value - partial_ep_bound(g))
        results.append(_check(f"fixed-state value within [0, partial bound] at {part} (5 gates)",
                              worst))

    # bound respected by random gates (analytic bound, exact values)
    for (d1, d2) in [(2, 2), (2, 3), (3, 3)]:
        part = Bipartition(d1, d2)
        bound = upper_bound(part)
        worst = max(ep_closed(gate(part)).value - bound for _ in range(20))
        results.append(_check(f"upper bound respected at {part} (20 gates)", worst, 1e-9))

    if extra_gate is not None:
        g = extra_gate
        base = ep_closed(g).value
        left = ep_value(bilocal(g.part) @ g.matrix, g.part)
        results.append(_check("user gate: bilocal invariance", abs(left - base)))
        results.append(_check("user gate: value within [0, bound]",
                              max(-base, base - upper_bound(g.part)), 1e-9))

    return results
