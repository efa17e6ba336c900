"""Maximization of entangling power over the unitary group and over basis permutations.

The continuous search is Riemannian steepest ascent on U(n) (Abrudan,
Eriksson & Koivunen, IEEE TSP 56(3), 2008).  The closed form is quartic in
``U``, so its Euclidean gradient ``G`` is exact; the ascent direction is the
skew-Hermitian ``Omega = G U^dag - U G^dag`` and the update is
``U <- exp(eta Omega) U``.  One ``eigh`` of ``-i Omega`` gives the rotation for
every step size of a fixed ladder, and the whole ladder of candidates is
evaluated in one stacked call.  Only strict improvements are accepted.
Restarts use independent seed substreams, so results are deterministic and
adding restarts can only improve the best value.

Restarts advance in lockstep: each iteration takes one stacked gradient, one
batched ``eigh`` and one ladder evaluation for all restarts still running, and
the gradient at an accepted candidate is read off the Gram matrices its ladder
evaluation already formed.  Each restart keeps its own acceptance and stopping
rule and leaves the stack when it stops.  Every operation acts on each
restart's slice alone, so the result is that of running the restarts one
after another, bit for bit.  Restarts run in groups whose ladder stacks hold
at most ``LOCKSTEP_ENTRIES`` entries, which bounds memory at large ``d1 d2``.

The discrete search runs over basis permutations.  Entangling power is
invariant under local unitaries, and relabeling the outputs ``(a, b) ->
(sigma(a), tau(b))`` is the local permutation ``P_sigma (x) P_tau``, so only
one table per relabeling orbit (``d1! d2!`` tables each) is evaluated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
# ep_value is unused here but stays bound: bench/spans.py traces entpow.search.ep_value
from .power import (UnitaryGate, _closed_form, _gradients, _i0_i1, ep_value,  # noqa: F401
                    ep_values, substack_size, upper_bound)
from .sampling import SeedSpec, _haar_unitary_from
from .tensorops import Bipartition, permutation_matrix

#: cap on d1*d2 for exhaustive permutation search ((d1*d2)! / (d1! d2!) candidates)
PERMUTATION_DIM_CAP = 10

#: step sizes eta tried along every ascent direction, 2^4 down to 2^-11
STEP_LADDER = 2.0 ** np.arange(4, -12, -1)

#: an ascent stops once its best step gains at most this much
ASCENT_TOLERANCE = 1e-9

#: matrix entries in the ladder stack of one lockstep group (``len(STEP_LADDER)``
#: candidates per restart); bounds the working set of :func:`maximize_ep`
#: without changing any value
LOCKSTEP_ENTRIES = 2 ** 16


@dataclass(eq=False)
class OptimizeResult:
    """Best gate found, with the bound it chases and the improvement history."""

    best_value: float
    best_gate: UnitaryGate
    bound: float
    gap_to_bound: float
    iterations_used: int      # ascent iterations over all restarts, each start counting as one
    trace: list[tuple[int, float]] = field(default_factory=list)


def _lockstep_ascent(part: Bipartition, starts: np.ndarray, max_iters: int):
    """Lockstep ascent from a ``(k, n, n)`` stack of starts (see the module docstring).

    Returns each restart's final matrix, local improvement trace and iteration
    count.  Iteration 0 is the start; a restart accepts its best candidate only
    if it improves, and stops when no step improves, when its gain is at most
    ``ASCENT_TOLERANCE``, or after ``max_iters`` steps.  The last trace entry
    holds the returned matrix's value.
    """
    k, n = len(starts), part.dim
    i0, i1, grams = _i0_i1(starts, part)
    values = _closed_form(i0, i1, part)
    traces = [[(0, float(v))] for v in values]
    iterations = [max_iters + 1] * k
    finals = starts.copy()     # each restart's last accepted matrix
    running, u = np.arange(k), starts
    for steps in range(1, max_iters + 1):
        gu = _gradients(*grams, part) @ u.conj().transpose(0, 2, 1)
        omega = gu - gu.conj().transpose(0, 2, 1)
        # exp(eta Omega) = v diag(exp(i eta w)) v^dag for the eigenpairs (w, v) of -i Omega
        w, v = np.linalg.eigh(-1j * omega)
        phases = np.exp(1j * (STEP_LADDER[:, None] * w[:, None, :]))
        rotations = v[:, None] * phases[:, :, None, :]
        candidates = (rotations @ (v.conj().transpose(0, 2, 1) @ u)[:, None]).reshape(-1, n, n)
        i0, i1, ladder = _i0_i1(candidates, part)
        ladder_values = _closed_form(i0, i1, part).reshape(len(running), len(STEP_LADDER))
        rows = np.arange(len(running))
        best = ladder_values.argmax(axis=1)
        top = ladder_values[rows, best]
        gain = top - values
        accepted = gain > 0     # no step size improves (a NaN stops too)
        going = gain > ASCENT_TOLERANCE
        picked = rows * len(STEP_LADDER) + best
        finals[running[accepted]] = candidates[picked[accepted]]
        for i in np.flatnonzero(accepted):
            traces[running[i]].append((steps, float(top[i])))
        for r in running[~going]:
            iterations[r] = steps + 1
        running, picked, values = running[going], picked[going], top[going]
        if not len(running):
            break
        u, grams = finals[running], tuple(g[picked] for g in ladder)
        del candidates, ladder   # one ladder's stacks alive at a time
    return finals, traces, iterations


def maximize_ep(part: Bipartition, seed: SeedSpec, restarts: int = 16,
                max_iters: int = 4000) -> OptimizeResult:
    """Maximize entangling power over U(d1*d2) by restarted gradient ascent.

    Deterministic for given arguments: restart ``r`` draws from seed substream
    ``r``, so a run consumes streams ``seed.stream_index`` to
    ``seed.stream_index + restarts - 1`` (for independent runs use distinct
    master seeds).  The best gate is that of the first restart to reach the
    maximum, and the trace records every new best at its global iteration.
    Every evaluated candidate is a valid unitary, so the best value respects
    the analytic upper bound.  The defaults handle dimensions up to 4x4 well.

    Restarts advance in lockstep (:func:`_lockstep_ascent`), in groups taken
    in restart order whose ladder stacks hold at most ``LOCKSTEP_ENTRIES``
    entries.  A restart's result does not depend on its group, so the result
    is that of running the restarts one after another, bit for bit.  From
    ``d1 d2 = 46`` on, a group is one restart, and memory is that of a single
    ascent.
    """
    if restarts < 1 or max_iters < 1:
        raise ValidationError("restarts and max_iters must be positive")
    n = part.dim
    group = max(1, LOCKSTEP_ENTRIES // (len(STEP_LADDER) * n * n))
    best_val, best_matrix = -math.inf, None
    trace: list[tuple[int, float]] = []
    offset = 0
    for first in range(0, restarts, group):
        starts = np.stack([_haar_unitary_from(seed.substream(r).generator(), n)
                           for r in range(first, min(first + group, restarts))])
        for u, local, iterations in zip(*_lockstep_ascent(part, starts, max_iters)):
            for it, v in local:
                if v > best_val:
                    # the local trace rises to the value of u, so u is this restart's best
                    best_val, best_matrix = v, u
                    trace.append((offset + it, v))
            offset += iterations
    bound = upper_bound(part)
    return OptimizeResult(
        best_value=best_val,
        best_gate=UnitaryGate(best_matrix, part),
        bound=bound,
        gap_to_bound=bound - best_val,
        iterations_used=offset,
        trace=trace,
    )


def _orbit_representatives(part: Bipartition) -> np.ndarray:
    """Least table of every output-relabeling orbit, in lexicographic order.

    A table sends basis vector ``k`` to ``images[k] = a*d2 + b``.  Relabeling
    the outputs by ``sigma (x) tau`` acts freely, and the least table of an
    orbit is the one whose ``a`` labels and whose ``b`` labels are each
    restricted growth strings: every new label is one more than the largest
    seen so far.  Prefixes are extended one position at a time by every unused
    image that keeps both strings growing; ``np.nonzero`` takes them row by
    row, so the result stays in lexicographic order.

    Returns an ``(n! / (d1! d2!), n)`` integer array.
    """
    n = part.dim
    a_of, b_of = np.divmod(np.arange(n), part.d2)
    prefixes = np.zeros((1, 0), dtype=np.intp)
    used = np.zeros((1, n), dtype=bool)
    max_a = max_b = np.full(1, -1)
    for _ in range(n):
        grows = (a_of <= max_a[:, None] + 1) & (b_of <= max_b[:, None] + 1)
        rows, images = np.nonzero(grows & ~used)
        prefixes = np.column_stack([prefixes[rows], images])
        used = used[rows]
        used[np.arange(len(rows)), images] = True
        max_a = np.maximum(max_a[rows], a_of[images])
        max_b = np.maximum(max_b[rows], b_of[images])
    return prefixes


def exhaustive_permutation_max(part: Bipartition) -> tuple[float, tuple[int, ...]]:
    """Maximum entangling power over all basis permutations, with an argmax table.

    Evaluates only the least table of each output-relabeling orbit
    (:func:`_orbit_representatives`), in lexicographic order and in
    sub-stacks of ``max(1, 4096 // n^2)`` tables per call; ties are broken by
    the lexicographically smallest table.  For 0/1 matrices the closed form
    sums exact integers, so a whole orbit shares one value bit for bit, and
    the first maximizer over all ``(d1*d2)!`` tables is the least of its orbit:
    the result equals that of a scan over every table.  Dimensions above
    ``PERMUTATION_DIM_CAP`` raise :class:`ResourceLimitError` rather than
    enumerate forever.
    """
    n = part.dim
    if n > PERMUTATION_DIM_CAP:
        raise ResourceLimitError(
            f"permutation search over {n}! tables exceeds the cap d1*d2 <= {PERMUTATION_DIM_CAP}"
        )
    tables = _orbit_representatives(part)
    substack = substack_size(n)
    values = np.concatenate([ep_values(permutation_matrix(tables[i:i + substack]), part)
                             for i in range(0, len(tables), substack)])
    best_row = int(np.argmax(values))
    return float(values[best_row]), tuple(tables[best_row].tolist())
