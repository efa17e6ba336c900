"""Maximization of entangling power over the unitary group and over basis permutations.

The continuous search is a derivative-free hill climb with multiplicative
random perturbations ``U <- exp(i eps G) U`` (``G`` random Hermitian of unit
Frobenius norm), the step ``eps`` shrinking geometrically on every rejection.
Restarts use independent seed substreams, so results are deterministic and
adding restarts can only improve the best value.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .power import UnitaryGate, _map_ordered, ep_value, upper_bound
from .sampling import SeedSpec, _haar_unitary_from
from .tensorops import Bipartition

#: default cap on d1*d2 for exhaustive permutation search ((d1*d2)! candidates)
PERMUTATION_DIM_CAP = 8


@dataclass(frozen=True)
class OptimizeConfig:
    """Hill-climb settings; the defaults handle dimensions up to 3x4 well."""

    part: Bipartition
    seed: SeedSpec
    restarts: int = 16
    max_iters: int = 4000
    initial_step: float = 0.8
    step_decay: float = 0.995
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValidationError("restarts and max_iters must be positive")
        if self.initial_step <= 0 or self.tolerance <= 0:
            raise ValidationError("initial_step and tolerance must be positive")
        if not 0 < self.step_decay < 1:
            raise ValidationError(f"step_decay must lie in (0,1), got {self.step_decay}")


@dataclass(eq=False)
class OptimizeResult:
    """Best gate found, with the bound it chases and the improvement history."""

    best_value: float
    best_gate: UnitaryGate
    bound: float
    gap_to_bound: float
    iterations_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)


def _unit_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h)


def _climb(cfg: OptimizeConfig, restart: int):
    """One restart: returns (value, matrix, local improvement trace, evaluations)."""
    n = cfg.part.dim
    rng = cfg.seed.substream(restart).generator()
    u = _haar_unitary_from(rng, n)
    val = ep_value(u, cfg.part)
    eps = cfg.initial_step
    trace = [(0, val)]
    evals = 1
    for it in range(1, cfg.max_iters + 1):
        if eps < cfg.tolerance:
            break
        g = _unit_hermitian(rng, n)
        w, v = np.linalg.eigh(g)
        step = (v * np.exp(1j * eps * w)) @ v.conj().T
        cand = step @ u
        cand_val = ep_value(cand, cfg.part)
        evals += 1
        if cand_val > val:
            u, val = cand, cand_val
            trace.append((it, val))
        else:
            eps *= cfg.step_decay
    return val, u, trace, evals


def maximize_ep(cfg: OptimizeConfig, threads: int | None = None) -> OptimizeResult:
    """Maximize entangling power over U(d1*d2) by restarted hill climbing.

    Deterministic for a given config: restart ``r`` draws from seed substream
    ``r``, and the reduction takes the maximum in restart order (ties keep the
    earlier restart).  Every evaluated candidate is a valid unitary, so the
    best value respects the analytic upper bound.
    """
    results = _map_ordered(lambda r: _climb(cfg, r), list(range(cfg.restarts)), threads)

    best_val = -math.inf
    merged: list[tuple[int, float]] = []
    offset = 0
    for _, _, local, evals in results:
        for it, v in local:
            if v > best_val:
                best_val = v
                merged.append((offset + it, v))
        offset += evals
    # max keeps the first of equal values, i.e. the earliest restart
    best_matrix = max(results, key=lambda r: r[0])[1]

    gate = UnitaryGate(best_matrix, cfg.part)
    bound = upper_bound(cfg.part)
    return OptimizeResult(
        best_value=best_val,
        best_gate=gate,
        bound=bound,
        gap_to_bound=bound - best_val,
        iterations_used=offset,
        trace=merged,
    )


def exhaustive_permutation_max(part: Bipartition,
                               max_dim: int = PERMUTATION_DIM_CAP) -> tuple[float, tuple[int, ...]]:
    """Maximum entangling power over all basis permutations, with an argmax table.

    Enumerates all ``(d1*d2)!`` permutation gates; ties are broken by the
    lexicographically smallest table.  Dimensions above ``max_dim`` raise
    :class:`ResourceLimitError` rather than enumerate forever.
    """
    n = part.dim
    if n > max_dim:
        raise ResourceLimitError(
            f"permutation search over {n}! tables exceeds the cap d1*d2 <= {max_dim}"
        )
    cols = np.arange(n)
    m = np.zeros((n, n))
    best = -math.inf
    best_table: tuple[int, ...] = tuple(range(n))
    for table in itertools.permutations(range(n)):
        m[:, :] = 0.0
        m[table, cols] = 1.0
        val = ep_value(m, part)
        if val > best + 1e-12:
            best = val
            best_table = table
    return best, best_table
