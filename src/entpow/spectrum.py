"""Distribution of entangling power under Haar-random unitaries.

For square bipartitions the density is markedly dimension dependent: at
``2x2`` it grows strictly up to ``2/9`` and is zero above it (criterion 9 in
``tests/test_acceptance.py`` fits it to the exact density), while from ``3x3``
on it vanishes at both ends of the allowed range and peaks in the interior.
"""

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# ep_value is unused here but stays bound: bench/spans.py traces entpow.spectrum.ep_value
from .power import _EvalPlan, ep_value, ep_values, substack_size, upper_bound  # noqa: F401
from .sampling import SeedSpec, _DrawPlan, _equal_parts, _haar_unitary_from, block_sizes
from .tensorops import Bipartition


@dataclass(eq=False)
class Histogram:
    """Binned estimate of the entangling-power density, with sample metadata."""

    part: Bipartition
    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    seed: SeedSpec
    empirical_mean: float
    empirical_max: float

    @property
    def densities(self) -> np.ndarray:
        """Counts normalized to a probability density over the binned range."""
        widths = np.diff(self.bin_edges)
        return self.counts / (self.n_samples * widths)


def sample_q(part: Bipartition, n_samples: int, n_bins: int, seed: SeedSpec) -> Histogram:
    """Histogram of entangling power over ``n_samples`` Haar-random unitaries.

    Bins are uniform over ``[0, upper_bound(part)]`` (over ``[0, 1]`` when the
    bound degenerates to zero, i.e. a trivial factor).  Sampling is split over
    a fixed set of seed substreams taken in stream order, so the histogram is
    deterministic for a given seed.  Within a stream, gates are drawn and
    evaluated in sub-stacks by :func:`ep_values`: every stream splits into
    the same number of equal sub-stacks, the fewest that keep each within
    16384 matrix entries.  Each thread allocates one workspace of four rows
    once, for the largest sub-stack, and a sub-stack allocates no working
    arrays of its own (:func:`_haar_values`); the values equal those of a
    one-gate-at-a-time loop bit for bit.
    The streams run on the calling thread and one helper thread per further
    CPU the process may use, at most one thread per stream; the histogram
    does not depend on the number of CPUs.  The call consumes streams
    ``seed.stream_index`` to ``seed.stream_index + 63`` (fewer below 64
    samples); for independent histograms use distinct master seeds.
    """
    if n_bins < 2:
        raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
    values = _haar_values(part, n_samples, seed)
    bound = upper_bound(part)
    hi = bound if bound > 0 else 1.0
    edges = np.linspace(0.0, hi, n_bins + 1)
    # exact values live in [0, bound]; clipping only removes float fuzz at the ends
    counts, _ = np.histogram(np.clip(values, 0.0, hi), bins=edges)
    return Histogram(
        part=part,
        bin_edges=edges,
        counts=counts,
        n_samples=n_samples,
        seed=seed,
        empirical_mean=float(values.mean()),
        empirical_max=float(values.max()),
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _haar_values(part: Bipartition, n_samples: int, seed: SeedSpec) -> np.ndarray:
    """Entangling power of ``n_samples`` Haar-random gates, in stream order.

    Block ``b`` of :func:`block_sizes` draws from ``seed.substream(b)`` alone,
    so blocks are independent.  The calling thread and ``min(cpus, blocks) - 1``
    helper threads take block indices in turn from one counter; the draws and
    Gram products are LAPACK/BLAS calls that release the GIL, so the threads
    overlap.  Every block splits into the same number of sub-stacks of
    sizes that differ by at most one: the fewest that keep the largest
    block's within :func:`substack_size`.  So the largest sub-stack, not the
    cap, sizes the one workspace each thread allocates: a complex array of
    four rows of ``size n^2`` entries, for sub-stacks of at most ``size``
    gates.  Parts come in at most two sizes, and each thread plans each size
    once per call, before it takes a block: a :class:`_DrawPlan` lays out
    every view, slot and index array of the draw in the four rows, and an
    :class:`_EvalPlan` on the draw's output ``q``, in the fourth row, lays
    out the evaluation's in the first three.  A sub-stack is then one
    :func:`_haar_unitary_from` call with the block's one ``(generator,
    count)`` pair and its size's draw plan, which draws each gate by
    Stewart's Householder recipe (:mod:`entpow.sampling`) in one
    ``zungqr``; and one :func:`ep_values` call with the evaluation
    plan, which writes the conjugates into the first row, ``A0`` and then
    ``A1`` into the second, and ``T0`` and then ``T1`` into the third: the
    plan is handed rows 0, 1, 2, 1, 2 as its five, views of three rows,
    because ``dist`` needs only the traces and not the Grams.  So
    every sub-stack of a size runs the same numpy calls on the same views.
    Every Gram fits a row because ``T0`` is taken on the smaller side
    (:mod:`entpow.power`).  A sub-stack allocates only its values and
    traces, a few entries per gate.  Blocks are concatenated in stream
    order, so the values do not depend on the number of CPUs.  Once a block
    raises, no thread starts another, and the first exception is re-raised
    after every helper is joined.
    """
    n = part.dim
    sizes = block_sizes(n_samples)
    parts = -(-max(sizes) // substack_size(n))
    blocks = [None] * len(sizes)
    claims = itertools.count()    # next() on it is one C call, so the GIL makes it atomic
    failures = []
    # a block one gate short of the largest has an empty part when parts equal its size
    part_sizes = {k for size in set(sizes) for k in _equal_parts(size, parts) if k}

    def work():
        try:
            workspace = np.empty((4, max(part_sizes) * n * n), dtype=complex)
            plans = {}
            for k in part_sizes:
                draw = _DrawPlan(workspace, k, n)
                plans[k] = draw, _EvalPlan(draw.q, part, [workspace[i] for i in (0, 1, 2, 1, 2)])
            for b in claims:
                if b >= len(sizes) or failures:
                    return
                rng = seed.substream(b).generator()
                blocks[b] = np.concatenate([
                    ep_values(_haar_unitary_from([(rng, k)], n, plans[k][0]), part, plans[k][1])
                    for k in _equal_parts(sizes[b], parts) if k])
        except BaseException as exc:     # re-raised by the calling thread below
            failures.append(exc)

    # daemon threads, so an interrupt while joining them does not keep the process alive
    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(_cpu_count(), len(sizes)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]
    return np.concatenate(blocks)
