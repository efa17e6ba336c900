"""Seeded sampling of Haar-random unitaries and uniformly distributed pure states.

All samplers are pure functions of a :class:`SeedSpec`: the same
``(master_seed, stream_index)`` pair reproduces the same output bit for bit on
a given build.  Distinct stream indices yield statistically independent
streams (counter-based Philox keyed through ``numpy.random.SeedSequence``), so
Monte Carlo loops can fan samples out over streams and stay deterministic
regardless of how many workers process them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .tensorops import DEFAULT_DIM_CAP, Bipartition

#: fixed number of sub-streams a bulk sampling request is split over
NUM_STREAM_BLOCKS = 64


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index selecting an independent substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.stream_index < 0:
            raise ValidationError(f"stream_index must be nonnegative, got {self.stream_index}")

    def substream(self, k: int) -> "SeedSpec":
        """The seed ``k`` streams further along; used to fan out parallel work."""
        return SeedSpec(self.master_seed, self.stream_index + k)

    def generator(self) -> np.random.Generator:
        """Fresh deterministic generator for this (seed, stream) pair."""
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(ss))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: real and imaginary parts are independent N(0,1)."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def haar_state(d: int, seed: SeedSpec) -> np.ndarray:
    """A pure state of dimension ``d`` drawn from the unitarily invariant measure.

    Implemented as a vector of independent standard complex Gaussians,
    normalized.  Returned as a ``(d, 1)`` column with unit Euclidean norm.
    """
    if d < 1:
        raise DimensionError(f"state dimension must be >= 1, got {d}")
    rng = seed.generator()
    z = _unit_rows(_complex_normal(rng, d))
    return z.reshape(d, 1)


def haar_unitary(n: int, seed: SeedSpec) -> np.ndarray:
    """An ``n x n`` unitary drawn from the Haar measure on U(n).

    Uses the Ginibre recipe: fill with independent standard complex Gaussians,
    QR-factorize, and absorb the phases of the triangular factor's diagonal so
    the distribution is exactly invariant under fixed unitary multiplication.
    """
    if n < 1:
        raise DimensionError(f"unitary dimension must be >= 1, got {n}")
    if n > DEFAULT_DIM_CAP:
        raise DimensionError(f"unitary dimension {n} exceeds the cap of {DEFAULT_DIM_CAP}")
    return _haar_unitary_from(seed.generator(), n)


def _haar_unitary_from(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """One ``(n, n)`` Haar unitary, or a ``(count, n, n)`` stack of them, from ``rng``.

    Each matrix takes its real then its imaginary Gaussian block from the
    stream, so a stack of ``count`` equals ``count`` successive single draws
    bit for bit.
    """
    g = rng.standard_normal((2, n, n) if count is None else (count, 2, n, n))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def product_state_pair(part: Bipartition, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """Independent Haar states on the two factors, drawn from one stream.

    The first factor's state is drawn first, then the second's, so that the
    pair is a deterministic function of the seed.
    """
    rng = seed.generator()
    p1 = _unit_rows(_complex_normal(rng, part.d1)).reshape(part.d1, 1)
    p2 = _unit_rows(_complex_normal(rng, part.d2)).reshape(part.d2, 1)
    return p1, p2


def block_sizes(n_samples: int, n_blocks: int = NUM_STREAM_BLOCKS) -> list[int]:
    """Deterministic partition of ``n_samples`` over at most ``n_blocks`` streams.

    Block ``b`` is processed with the generator of ``seed.substream(b)``; the
    partition depends only on ``n_samples``, never on worker count.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n_blocks = min(n_blocks, n_samples)
    base, extra = divmod(n_samples, n_blocks)
    return [base + (1 if b < extra else 0) for b in range(n_blocks)]


def product_state_block(part: Bipartition, seed: SeedSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Haar product pairs from one stream, as ``(count, d1)`` and ``(count, d2)`` arrays.

    All first-factor states are drawn before the second-factor ones; the first
    pair of a block of size 1 coincides with :func:`product_state_pair`.
    """
    rng = seed.generator()
    p1 = _unit_rows(_complex_normal(rng, (count, part.d1)))
    p2 = _unit_rows(_complex_normal(rng, (count, part.d2)))
    return p1, p2
