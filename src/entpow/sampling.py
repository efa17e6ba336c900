"""Seeded sampling of Haar-random unitaries and uniformly distributed pure states.

All samplers are pure functions of a :class:`SeedSpec`: the same
``(master_seed, stream_index)`` pair reproduces the same output bit for bit on
a given build.  Distinct stream indices yield statistically independent
streams (counter-based Philox keyed through ``numpy.random.SeedSequence``), so
Monte Carlo loops split their samples over a fixed set of streams and stay
deterministic.

Haar unitaries are drawn by Stewart's recipe (SIAM J. Numer. Anal. 17, 403
(1980)): ``n`` Householder reflectors, each from a fresh standard complex
Gaussian vector, multiplied out by LAPACK's ``zungqr`` and fixed by the signs
of the reflected norms.  Householder QR of a Ginibre matrix meets exactly such
vectors column by column, so the law is the Haar law of Mezzadri's QR recipe
(Notices AMS 54, 592 (2007)), which this package used before, from half the
Gaussians and no QR factorization.  Every output drawn from Haar unitaries
(``dist``, ``optimize``'s starts, ``verify``'s random gates) changed once
with it; ``mc`` and ``haar_state`` draw no unitary and did not change.
"""

import functools
from dataclasses import dataclass

import numpy as np
# the batched zungqr that numpy's own QR calls for Q: on its reflectors it returns that Q bit for bit
from numpy.linalg._umath_linalg import qr_reduced

from .errors import DimensionError, ValidationError
from .tensorops import DEFAULT_DIM_CAP, Bipartition, _is_integer, _leading

#: fixed number of sub-streams a bulk sampling request is split over
NUM_STREAM_BLOCKS = 64


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index selecting an independent substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.stream_index < 0:
            raise ValidationError(f"stream_index must be nonnegative, got {self.stream_index}")

    def substream(self, k: int) -> "SeedSpec":
        """The seed ``k`` streams further along; used to split work into streams.

        Calls that split work this way consume a run of consecutive streams
        from ``stream_index`` on, so two seeds of one master seed with nearby
        stream indices share streams; independent runs take distinct master
        seeds.
        """
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

    Uses Stewart's recipe (SIAM J. Numer. Anal. 17, 403 (1980); see the module
    docstring): a product of ``n`` Householder reflectors of fresh complex
    Gaussian vectors, with each column multiplied by the sign of its reflected
    norm, so the distribution is exactly invariant under fixed unitary
    multiplication.  It replaced Mezzadri's QR recipe, so a seed draws another
    matrix than it did before.  It is the stack of one that
    :func:`_haar_unitary_from` draws from ``seed``'s generator.
    """
    if n < 1:
        raise DimensionError(f"unitary dimension must be >= 1, got {n}")
    if n > DEFAULT_DIM_CAP:
        raise DimensionError(f"unitary dimension {n} exceeds the cap of {DEFAULT_DIM_CAP}")
    return _haar_unitary_from([(seed.generator(), 1)], n)[0]


@functools.lru_cache(maxsize=4)    # a dist or optimize run draws at one size
def _lower_triangle(n: int):
    """Index arrays for the ``n x n`` lower triangle in ``np.tril_indices`` order.

    Its rows and columns, the positions in that order of its diagonal and of
    its strict part, and the strict part's columns and flat matrix indices.
    """
    rows, cols = np.tril_indices(n)
    diagonal, below = np.flatnonzero(rows == cols), np.flatnonzero(rows > cols)
    return rows, cols, diagonal, below, cols[below], rows[below] * n + cols[below]


def _haar_unitary_from(draws, n: int, work: tuple | None = None) -> np.ndarray:
    """A stack of Haar unitaries drawn by ``(generator, count)`` pairs, taken in order.

    Each pair's generator draws its ``count`` matrices one after another, and
    each matrix takes ``n(n+1)/2`` real then ``n(n+1)/2`` imaginary Gaussians,
    so the ``(count, n, n)`` stack (``count`` summed over the pairs) equals
    successive stacks of one bit for bit, whichever generators the pairs
    hold.  Scaled by ``1 / sqrt 2`` (the bits of a complex division by
    ``sqrt 2``), they fill a lower triangle ``x`` in ``np.tril_indices``
    order, whose column ``j`` from the diagonal down is the Gaussian vector of
    reflector ``j`` (Stewart's recipe, SIAM J. Numer. Anal. 17, 403 (1980),
    which replaced Mezzadri's QR; see the module docstring).  The
    reflectors follow LAPACK ``zlarfg``: ``alpha = x_jj``, ``beta =
    -copysign(|x_j|, Re alpha)``, ``tau = (beta - alpha) / beta`` and, below
    the diagonal, ``v = x_j * (1 / (alpha - beta))``; ``|x_j|^2`` adds the
    squared parts down the column in row order.  One ``zungqr`` of the whole
    stack multiplies the reflectors out, and column ``j`` is multiplied by
    ``sign(beta_j)`` in place.  ``work``, a flat float array of at least
    ``count n(n+1)`` entries and a flat complex one of at least
    ``count n^2``, takes the Gaussians and the reflectors fed to ``zungqr``,
    which reads only their strict lower triangle; without it both are
    allocated.  ``dist``'s Gaussian buffer holds ``2 count n^2`` floats, of
    which the draw uses ``count n(n+1)``: :func:`ep_values` needs them all
    for its conjugates.
    """
    count = sum(k for _, k in draws)
    m = n * (n + 1) // 2
    gauss, mats = work or (np.empty(2 * count * m), np.empty(count * n * n, dtype=complex))
    g, h = _leading(gauss, (count, 2, m)), _leading(mats, (count, n, n))
    start = 0
    for rng, k in draws:
        rng.standard_normal(out=g[start:start + k])
        start += k
    scale = 1.0 / np.sqrt(2.0)
    x = np.empty((count, m), dtype=complex)
    np.multiply(g[:, 0], scale, out=x.real)
    np.multiply(g[:, 1], scale, out=x.imag)
    rows, cols, diagonal, below, below_cols, below_flat = _lower_triangle(n)
    # squares[i, :, j] = |x_ij|^2 on the lower triangle and 0 above it; the sum over i adds one
    # row at a time, so each column sums from the diagonal down
    squares = np.zeros((n, count, n))
    squares[rows, :, cols] = (x.real ** 2 + x.imag ** 2).T
    alpha = x[:, diagonal]
    beta = -np.copysign(np.sqrt(squares.sum(axis=0)), alpha.real)
    h.reshape(count, n * n)[:, below_flat] = x[:, below] * (1 / (alpha - beta))[:, below_cols]
    q = qr_reduced(h, (beta - alpha) / beta)
    q *= np.sign(beta)[:, None, :]
    return q


def block_sizes(n_samples: int) -> list[int]:
    """Deterministic partition of ``n_samples`` over at most ``NUM_STREAM_BLOCKS`` streams.

    Block ``b`` is processed with the generator of ``seed.substream(b)``; the
    partition depends only on ``n_samples``.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    blocks = min(NUM_STREAM_BLOCKS, n_samples)
    base, extra = divmod(n_samples, blocks)
    return [base + (1 if b < extra else 0) for b in range(blocks)]


def product_state_block(part: Bipartition, seed: SeedSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Haar product pairs from one stream, as ``(count, d1)`` and ``(count, d2)`` arrays.

    All first-factor states are drawn before the second-factor ones, so the
    first row of ``p1`` is the state :func:`haar_state` draws from the same seed.
    """
    rng = seed.generator()
    p1 = _unit_rows(_complex_normal(rng, (count, part.d1)))
    p2 = _unit_rows(_complex_normal(rng, (count, part.d2)))
    return p1, p2
