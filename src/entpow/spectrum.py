"""Distribution of entangling power under Haar-random unitaries.

For square bipartitions the density is markedly dimension dependent: at
``2x2`` it grows strictly up to ``2/9`` and is zero above it (criterion 9 in
``tests/test_acceptance.py`` fits it to the exact density), while from ``3x3``
on it vanishes at both ends of the allowed range and peaks in the interior.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# ep_value is unused here but stays bound: bench/spans.py traces entpow.spectrum.ep_value
from .power import ep_value, ep_values, substack_size, upper_bound  # noqa: F401
from .sampling import SeedSpec, _haar_unitary_from, block_sizes
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
    evaluated in sub-stacks by :func:`ep_values`; the values equal those of a
    one-gate-at-a-time loop bit for bit.  The call consumes streams
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


def _haar_values(part: Bipartition, n_samples: int, seed: SeedSpec) -> np.ndarray:
    """Entangling power of ``n_samples`` Haar-random gates, in stream order."""
    n = part.dim
    substack = substack_size(n)
    chunks = []
    for b, count in enumerate(block_sizes(n_samples)):
        rng = seed.substream(b).generator()
        for start in range(0, count, substack):
            chunks.append(ep_values(_haar_unitary_from(rng, n, min(substack, count - start)), part))
    return np.concatenate(chunks)

