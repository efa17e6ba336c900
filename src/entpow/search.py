"""Maximization of entangling power over the unitary group and over basis permutations.

The continuous search is Riemannian steepest ascent on U(n) (Abrudan,
Eriksson & Koivunen, IEEE TSP 56(3), 2008).  The closed form is quartic in
``U``, so its Euclidean gradient ``G`` is exact; the ascent direction is the
skew-Hermitian ``Omega = G U^dag - U G^dag`` and the update is
``U <- exp(eta Omega) U``.

Window: each iteration of a restart tries the three steps ``eta = 2^(c+1),
2^c, 2^(c-1)``, all from one ``eigh`` of ``-i Omega`` and evaluated in one
stacked call, and accepts the best of them only if it strictly improves.  As
in Abrudan et al.'s Armijo rule, the step adapts by powers of two: ``c``
starts at 0 and moves to the exponent of each accepted step, with no upper
cap.  When no step in the window improves, ``c`` drops by 3 and the restart
keeps its matrix and its gradient.

Stop: a restart stops when an accepted gain is at most ``ASCENT_TOLERANCE``,
when its next window would try a step below ``2^MIN_STEP_EXPONENT``, when
``Omega`` is exactly 0, or after ``max_iters`` windows.

Groups: restart ``r`` starts from seed substream ``r``.  Restarts advance in
lockstep, in groups of ``substack_size(d1 d2)`` (:mod:`entpow.power`) taken
in restart order, so a group's window stack holds at most ``3 * 8192``
entries; from ``d1 d2 = 65`` on, a group is one restart.  Each iteration takes
one batched ``eigh`` and one window evaluation for the group's running
restarts, and a gradient is taken only at each start and each accepted step.
Every operation acts on each restart's slice alone, so the result is that of
running the restarts one after another, bit for bit: it depends neither on the
grouping nor, since both searches run on the calling thread alone, on the
number of CPUs.  Adding restarts can only improve the best value.

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

#: exponents of a window's three steps relative to its centre exponent c
_WINDOW = np.array([1, 0, -1])

#: no window tries a step below 2^MIN_STEP_EXPONENT
MIN_STEP_EXPONENT = -11

#: an ascent stops once its best step gains at most this much
ASCENT_TOLERANCE = 1e-9


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
    """Ascend each matrix of a ``(k, n, n)`` stack of starts, all in lockstep.

    Returns each restart's final matrix, local improvement trace and iteration
    count.  A trace starts with ``(0, value of the start)`` and holds
    ``(iteration, value)`` for every accepted step, so its last entry is the
    final matrix's value; the count is the start plus the windows evaluated.
    """
    k, n = len(starts), part.dim
    i0, i1, grams = _i0_i1(starts, part)
    values = _closed_form(i0, i1, part)
    traces = [[(0, v)] for v in values.tolist()]
    matrices, gradients = starts.copy(), _gradients(*grams, part)
    iterations = np.zeros(k, dtype=int)
    running, centre = np.arange(k), np.zeros(k, dtype=int)
    for steps in range(1, max_iters + 1):
        u = matrices[running]
        gu = gradients[running] @ u.conj().transpose(0, 2, 1)
        omega = gu - gu.conj().transpose(0, 2, 1)
        # exp(eta Omega) = v diag(exp(i eta w)) v^dag for the eigenpairs (w, v) of -i Omega
        w, v = np.linalg.eigh(-1j * omega)
        exponents = centre[:, None] + _WINDOW
        phases = np.exp(1j * ((2.0 ** exponents)[:, :, None] * w[:, None, :]))
        rotations = v[:, None] * phases[:, :, None, :]
        candidates = (rotations @ (v.conj().transpose(0, 2, 1) @ u)[:, None]).reshape(-1, n, n)
        # rebinding frees the last window only once this one is formed, so the allocator
        # reuses its memory rather than returning it and faulting it back every iteration
        i0, i1, window = _i0_i1(candidates, part)
        window_values = _closed_form(i0, i1, part).reshape(len(running), len(_WINDOW))
        picked = np.arange(len(running)) * len(_WINDOW) + window_values.argmax(axis=1)
        top = window_values.ravel()[picked]
        gain = top - values
        accepted = gain > 0     # no step improves (a NaN counts as none)
        won, source = running[accepted], picked[accepted]
        matrices[won] = candidates[source]
        gradients[won] = _gradients(*(g[source] for g in window), part)
        for r, value in zip(won.tolist(), top[accepted].tolist()):
            traces[r].append((steps, value))
        iterations[running] = steps + 1
        centre = np.where(accepted, exponents.ravel()[picked], centre - 3)
        going = (np.where(accepted, gain > ASCENT_TOLERANCE, omega.any(axis=(1, 2)))
                 & (centre - 1 >= MIN_STEP_EXPONENT))
        values = np.where(accepted, top, values)
        running, centre, values = running[going], centre[going], values[going]
        if not len(running):
            break
    return matrices, traces, iterations.tolist()


def maximize_ep(part: Bipartition, seed: SeedSpec, restarts: int = 16,
                max_iters: int = 4000) -> OptimizeResult:
    """Maximize entangling power over U(d1*d2) by restarted gradient ascent.

    Deterministic for given arguments: restart ``r`` draws from seed substream
    ``r``, so a run consumes streams ``seed.stream_index`` to
    ``seed.stream_index + restarts - 1`` (for independent runs use distinct
    master seeds).  ``max_iters`` caps the windows of each restart; the
    window, stop and group rules are in the module docstring.  The best gate
    is that of the first restart to reach the maximum, and the trace records
    every new best at its global iteration.  Every evaluated candidate is a
    valid unitary, so the best value respects the analytic upper bound.  The
    defaults handle dimensions up to 4x4 well.
    """
    if restarts < 1 or max_iters < 1:
        raise ValidationError("restarts and max_iters must be positive")
    n = part.dim
    group = substack_size(n)
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
    sub-stacks of ``substack_size(n)`` tables per call; ties are broken by
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
