"""Distribution of entangling power under Haar-random unitaries.

For square bipartitions the density is markedly dimension dependent: at
``2x2`` it grows monotonically toward the maximum (most two-qubit gates are
nearly optimal entanglers), while from ``3x3`` on it vanishes at both ends of
the allowed range and peaks in the interior.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# ep_value is unused here but stays bound: bench/spans.py traces entpow.spectrum.ep_value
from .power import _map_ordered, ep_value, ep_values, upper_bound  # noqa: F401
from .sampling import SeedSpec, _haar_unitary_from, block_sizes
from .tensorops import Bipartition

#: matrix entries per sub-stack of gates drawn and evaluated at once; caps the
#: working set of a stream block without changing what the stream yields
_SUBSTACK_ENTRIES = 4096


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


def sample_q(part: Bipartition, n_samples: int, n_bins: int, seed: SeedSpec,
             threads: int | None = None) -> Histogram:
    """Histogram of entangling power over ``n_samples`` Haar-random unitaries.

    Bins are uniform over ``[0, upper_bound(part)]`` (over ``[0, 1]`` when the
    bound degenerates to zero, i.e. a trivial factor).  Sampling fans out over
    a fixed set of seed substreams and is reduced in stream order, so the
    histogram is deterministic for a given seed at any worker count.  Within a
    stream, gates are drawn and evaluated in sub-stacks by :func:`ep_values`;
    the values equal those of a one-gate-at-a-time loop bit for bit.
    """
    if n_bins < 2:
        raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
    values = _haar_values(part, n_samples, seed, threads)
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


def _haar_values(part: Bipartition, n_samples: int, seed: SeedSpec,
                 threads: int | None = None) -> np.ndarray:
    """Entangling power of ``n_samples`` Haar-random gates, in stream order."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n = part.dim
    substack = max(1, _SUBSTACK_ENTRIES // (n * n))

    def one_block(args):
        b, count = args
        rng = seed.substream(b).generator()
        sizes = [min(substack, count - start) for start in range(0, count, substack)]
        return np.concatenate([ep_values(_haar_unitary_from(rng, n, k), part) for k in sizes])

    return np.concatenate(_map_ordered(one_block, list(enumerate(block_sizes(n_samples))), threads))


def monotonicity_score(h: Histogram) -> float:
    """Rank correlation between bin index and count over the occupied range.

    Scores near +1 mean the density grows monotonically toward the upper end
    of its support (the two-qubit signature); interior-peaked densities score
    much lower.  Requires at least 10 nonempty bins up to the last occupied
    one.
    """
    counts = np.asarray(h.counts)
    nonzero = np.nonzero(counts)[0]
    if nonzero.size == 0:
        raise ValidationError("histogram is empty")
    last = nonzero[-1]
    leading = counts[: last + 1]
    if np.count_nonzero(leading) < 10:
        raise ValidationError(
            f"need >= 10 nonempty leading bins for a meaningful score, got {np.count_nonzero(leading)}"
        )
    if np.all(leading == leading[0]):
        raise ValidationError("histogram counts are degenerate (constant)")
    # Spearman's rho: Pearson correlation of the ranks; bin indices are their own ranks
    return float(np.corrcoef(np.arange(leading.size), _average_ranks(leading))[0, 1])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks ``1..n`` of ``x``; tied entries share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks
