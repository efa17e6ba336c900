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
(Notices AMS 54, 592 (2007)), reached from half the Gaussians and no QR
factorization.
"""

# annotations stay unevaluated, so that importing this module does not load numpy.random
from __future__ import annotations

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

    def substream(self, k: int) -> SeedSpec:
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
    multiplication.  It is the stack of one that :func:`_haar_unitary_from`
    draws from ``seed``'s generator.
    """
    if n < 1:
        raise DimensionError(f"unitary dimension must be >= 1, got {n}")
    if n > DEFAULT_DIM_CAP:
        raise DimensionError(f"unitary dimension {n} exceeds the cap of {DEFAULT_DIM_CAP}")
    return _haar_unitary_from([(seed.generator(), 1)], n)[0]


@functools.lru_cache(maxsize=4)    # a dist or optimize run draws at one size
def _lower_triangle(n: int):
    """Row and column index arrays of the ``n x n`` lower triangle, in ``np.tril_indices`` order."""
    return np.tril_indices(n)


class _DrawPlan:
    """The views one draw of ``count`` ``n x n`` Haar unitaries works through, laid out once.

    ``work`` is the draw's memory: a complex array of four rows of at least
    ``count n^2`` entries each.  Each row takes, in turn, only what no later
    step reads from it again:

    - the first, read as ``2 count n^2`` floats: the Gaussians ``g``, then the
      squared imaginary parts, then ``beta`` (as complex numbers with zero
      imaginary parts) and, in place, its signs;
    - the second: ``x``, held row by row across the stack as an ``(n,
      count, n)`` array and scaled in place into the reflectors, of which
      ``zungqr`` reads only the strict lower triangle; then the signs,
      repeated down each column;
    - the third: ``tau``;
    - the fourth: the squared real parts, as an ``(n, count, n)`` float array
      to which the imaginary ones are added and which is summed over its
      first axis; then ``alpha``, turned in place into ``1 / (alpha -
      beta)``; then ``zungqr``'s output ``q``, which the draw returns.

    A ufunc buffers any operand it has to cast or cannot read in one stride,
    up to 8192 entries; hence the complex ``beta``, the copied ``alpha``,
    the rows scaled one at a time and the repeated signs.  So a draw through
    a plan allocates no array of ``count n`` or more entries, and its values
    do not depend on the rows' earlier contents.  A plan serves any number of
    draws of ``count`` matrices, one after another.
    """

    def __init__(self, work: np.ndarray, count: int, n: int):
        gauss, mats, taus, out = work[0].view(float), *work[1:]
        self.g = _leading(gauss, (count, 2, n * (n + 1) // 2))
        self.g_real, self.g_imag = self.g[:, 0].T, self.g[:, 1].T
        x = _leading(mats, (n, count, n))
        self.x, self.x_rows, self.x_real, self.x_imag = x, list(x), x.real, x.imag
        self.lower = _lower_triangle(n)
        self.diagonal, self.reflectors = np.diagonal(x, axis1=0, axis2=2), x.transpose(1, 0, 2)
        self.squares, self.imag2 = _leading(out.view(float), x.shape), _leading(gauss, x.shape)
        self.beta, self.tau, self.alpha = (_leading(slot, (count, n)) for slot in (work[0], taus, out))
        self.beta_real, self.beta_imag, self.alpha_real = self.beta.real, self.beta.imag, self.alpha.real
        self.q, self.signs = _leading(out, (count, n, n)), _leading(mats, (count, n, n))
        self.column_signs = self.beta[:, None, :]


def _haar_unitary_from(draws, n: int, plan: _DrawPlan | None = None) -> np.ndarray:
    """A stack of Haar unitaries drawn by ``(generator, count)`` pairs, taken in order.

    Each pair's generator draws its ``count`` matrices one after another, and
    each matrix takes ``n(n+1)/2`` real then ``n(n+1)/2`` imaginary Gaussians,
    so the ``(count, n, n)`` stack (``count`` summed over the pairs) equals
    successive stacks of one bit for bit, whichever generators the pairs
    hold.  Scaled by ``1 / sqrt 2`` (the bits of a complex division by
    ``sqrt 2``), they fill the lower triangle of a zeroed stack ``x`` in
    ``np.tril_indices`` order; column ``j`` of a matrix, from the diagonal
    down, is the Gaussian vector of reflector ``j`` (Stewart's recipe, SIAM
    J. Numer. Anal. 17, 403 (1980); see the module docstring).  The
    reflectors follow LAPACK ``zlarfg``: ``alpha = x_jj``, ``beta =
    -copysign(|x_j|, Re alpha)``, ``tau = (beta - alpha) / beta`` and, below
    the diagonal, ``v = x_j * (1 / (alpha - beta))``; ``|x_j|^2`` adds the
    squared parts down the column in row order.  One
    ``zungqr`` of the whole stack multiplies the reflectors out, and column
    ``j`` is multiplied by ``sign(beta_j)`` in place.

    The draw runs through the views of ``plan``, a :class:`_DrawPlan` for
    the summed ``count``, and returns its ``q``; without one it allocates
    four rows and plans them first.  Rows reach the draw only through a
    plan: ``dist`` lays one out per thread and part size and reuses it for
    every sub-stack of that size.
    """
    if plan is None:
        count = sum(k for _, k in draws)
        plan = _DrawPlan(np.empty((4, count * n * n), dtype=complex), count, n)
    p, start = plan, 0
    for rng, k in draws:
        rng.standard_normal(out=p.g[start:start + k])
        start += k
    np.multiply(p.g, 1.0 / np.sqrt(2.0), out=p.g)
    rows, cols = p.lower
    p.x.fill(0)
    p.x_real[rows, :, cols] = p.g_real
    p.x_imag[rows, :, cols] = p.g_imag
    # squares[i, :, j] = |x_ij|^2, 0 above the diagonal; the sum over i adds one row at a
    # time, so each column sums from the diagonal down
    np.square(p.x_real, out=p.squares)
    np.square(p.x_imag, out=p.imag2)
    np.add(p.squares, p.imag2, out=p.squares)
    p.beta_imag.fill(0)
    np.sum(p.squares, axis=0, out=p.beta_real)
    np.copyto(p.alpha, p.diagonal)
    np.negative(np.copysign(np.sqrt(p.beta_real, out=p.beta_real), p.alpha_real, out=p.beta_real),
                out=p.beta_real)
    np.divide(np.subtract(p.beta, p.alpha, out=p.tau), p.beta, out=p.tau)
    scales = np.divide(1, np.subtract(p.alpha, p.beta, out=p.alpha), out=p.alpha)
    for row in p.x_rows:
        row *= scales     # the diagonal and the zeros above it are not read
    qr_reduced(p.reflectors, p.tau, out=p.q)
    np.sign(p.beta_real, out=p.beta_real)
    np.copyto(p.signs, p.column_signs)
    np.multiply(p.q, p.signs, out=p.q)
    return p.q


def _equal_parts(total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` sizes that differ by at most one, the larger first."""
    base, extra = divmod(total, parts)
    return [base + (1 if b < extra else 0) for b in range(parts)]


def block_sizes(n_samples: int) -> list[int]:
    """Deterministic partition of ``n_samples`` over at most ``NUM_STREAM_BLOCKS`` streams.

    Block ``b`` is processed with the generator of ``seed.substream(b)``; the
    partition depends only on ``n_samples``.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    blocks = min(NUM_STREAM_BLOCKS, n_samples)
    return _equal_parts(n_samples, blocks)


def product_state_block(part: Bipartition, seed: SeedSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Haar product pairs from one stream, as ``(count, d1)`` and ``(count, d2)`` arrays.

    All first-factor states are drawn before the second-factor ones, so the
    first row of ``p1`` is the state :func:`haar_state` draws from the same seed.
    """
    rng = seed.generator()
    p1 = _unit_rows(_complex_normal(rng, (count, part.d1)))
    p2 = _unit_rows(_complex_normal(rng, (count, part.d2)))
    return p1, p2
