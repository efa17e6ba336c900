import numpy as np
import pytest
from numpy.linalg._umath_linalg import qr_reduced
from numpy.testing import assert_allclose, assert_array_equal

from entpow import Bipartition, DimensionError, SeedSpec, ValidationError, haar_state, haar_unitary, kron, linear_entropy
from entpow.sampling import _DrawPlan, _haar_unitary_from, block_sizes, product_state_block


def _moment(fn, d, n, seed):
    """Sample mean and its standard error of ``fn`` over ``n`` Haar states, as ``(n, d)`` rows."""
    vals = fn(product_state_block(Bipartition(d, 1), seed, n)[0])
    return vals.mean(), vals.std(ddof=1) / np.sqrt(n)


class TestSeedSpec:
    def test_reproducible(self):
        a = haar_state(5, SeedSpec(123, 4))
        b = haar_state(5, SeedSpec(123, 4))
        assert_array_equal(a, b)
        u = haar_unitary(6, SeedSpec(9, 1))
        v = haar_unitary(6, SeedSpec(9, 1))
        assert_array_equal(u, v)

    def test_streams_differ(self):
        a = haar_state(5, SeedSpec(123, 0))
        b = haar_state(5, SeedSpec(123, 1))
        assert not np.allclose(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SeedSpec(-1)
        with pytest.raises(ValidationError, match="64-bit unsigned"):
            SeedSpec(2**64)
        with pytest.raises(ValidationError):
            SeedSpec(3, -2)

    @pytest.mark.parametrize("args", [(1.5,), (1, 0.5), ("3",), (True,), (3, False), (np.float64(2.0),)],
                             ids=repr)
    def test_rejects_non_integers(self, args):
        with pytest.raises(ValidationError, match="must be an integer"):
            SeedSpec(*args)

    def test_accepts_numpy_integers(self):
        seed = SeedSpec(np.uint64(2**64 - 1), np.int32(3))
        assert seed == SeedSpec(2**64 - 1, 3)
        assert type(seed.master_seed) is int and type(seed.stream_index) is int
        assert_array_equal(haar_state(3, SeedSpec(np.int64(9))), haar_state(3, SeedSpec(9)))

    def test_substream(self):
        assert SeedSpec(7, 2).substream(3) == SeedSpec(7, 5)


class TestHaarState:
    def test_dimension_one(self):
        psi = haar_state(1, SeedSpec(0))
        assert psi.shape == (1, 1)
        assert_allclose(np.abs(psi[0, 0]), 1.0, atol=1e-12)

    def test_unit_norm(self):
        for i in range(10):
            psi = haar_state(7, SeedSpec(1, i))
            assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            haar_state(0, SeedSpec(0))

    def test_fourth_moment(self):
        # E |<0|psi>|^4 = 2/(d(d+1)): the symmetric average assigns weight
        # 2 C_d to each diagonal doubled-basis direction
        d, n = 2, 100_000
        oracle = 2.0 / (d * (d + 1))
        mean, stderr = _moment(lambda p: np.abs(p[:, 0]) ** 4, d, n, SeedSpec(21))
        assert abs(mean - oracle) < 3 * stderr

    def test_cross_moment(self):
        # E |<0|psi>|^2 |<1|psi>|^2 = 1/(d(d+1))
        d, n = 2, 100_000
        oracle = 1.0 / (d * (d + 1))
        mean, stderr = _moment(
            lambda p: np.abs(p[:, 0]) ** 2 * np.abs(p[:, 1]) ** 2, d, n, SeedSpec(22))
        assert abs(mean - oracle) < 3 * stderr

    def test_unitary_invariance_of_moments(self):
        # rotating by a fixed V must leave the overlap moments unchanged
        d, n = 2, 40_000
        v = haar_unitary(d, SeedSpec(77))
        mean, stderr = _moment(lambda p: np.abs((p @ v.T)[:, 0]) ** 4, d, n, SeedSpec(23))
        assert abs(mean - 1.0 / 3.0) < 3 * stderr


class TestHaarUnitary:
    def test_dimension_one_is_phase(self):
        u = haar_unitary(1, SeedSpec(5))
        assert u.shape == (1, 1)
        assert_allclose(np.abs(u[0, 0]), 1.0, atol=1e-12)

    def test_columns_orthonormal(self):
        for i in range(10):
            u = haar_unitary(6, SeedSpec(2, i))
            assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-10

    def test_mean_entangling_power(self):
        # sampled mean at 2x2 matches (d1-1)(d2-1)/(d1 d2 + 1) = 1/5
        from entpow import ep_value

        part = Bipartition(2, 2)
        n = 5000
        seed = SeedSpec(24)
        vals = np.array([ep_value(haar_unitary(4, seed.substream(i)), part) for i in range(n)])
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.2) < 3 * stderr

    def test_left_invariance_statistics(self):
        # multiplying by a fixed unitary leaves first-column moments unchanged
        n, samples = 3, 20_000
        v = haar_unitary(n, SeedSpec(88))
        seed = SeedSpec(25)
        oracle = 2.0 / (n * (n + 1))
        vals = np.array([
            float(np.abs((v @ haar_unitary(n, seed.substream(i)))[0, 0]) ** 4)
            for i in range(samples)
        ])
        stderr = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - oracle) < 3 * stderr


def per_matrix_draw(rng, n):
    """The one-matrix Householder recipe: lower-triangle Gaussians, reflectors, zungqr, sign fix."""
    rows, cols = np.tril_indices(n)
    g = rng.standard_normal((2, len(rows)))
    z = np.zeros((n, n), dtype=complex)
    z[rows, cols] = (g[0] + 1j * g[1]) / np.sqrt(2.0)
    alpha = np.diagonal(z).copy()
    # each column's squared norm adds its squared parts one at a time from the diagonal down
    norms = np.sqrt([np.cumsum(z[j:, j].real ** 2 + z[j:, j].imag ** 2)[-1] for j in range(n)])
    beta = -np.copysign(norms, alpha.real)
    reflectors = np.tril(z, -1) * (1 / (alpha - beta))
    return qr_reduced(reflectors, (beta - alpha) / beta) * np.sign(beta)


#: ways to draw a stack of 9: lists of calls, each a list of (stream, count) pairs.
#: Pairs that name one stream share its generator: one stream over three calls, and
#: one call over streams of their own, as the optimizer draws its starts
DRAW_PLANS = [[[(0, 5)], [(0, 3)], [(0, 1)]],
              [[(0, 1), (1, 1), (2, 1), (3, 2), (4, 4)]]]


class TestStackedHaarDraw:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_stack_equals_successive_draws(self, n):
        for plan in DRAW_PLANS:
            streams = {s for call in plan for s, _ in call}
            rngs = {s: SeedSpec(61 + s, n).generator() for s in streams}
            stacked = np.concatenate([_haar_unitary_from([(rngs[s], count) for s, count in call], n)
                                      for call in plan])
            ref_rngs = {s: SeedSpec(61 + s, n).generator() for s in streams}
            singles = np.stack([per_matrix_draw(ref_rngs[s], n)
                                for call in plan for s, count in call for _ in range(count)])
            assert stacked.shape == (9, n, n)
            assert_array_equal(stacked, singles)
            assert_array_equal(stacked[0], haar_unitary(n, SeedSpec(61, n)))

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_draw_in_used_buffers_equals_a_fresh_draw(self, n):
        # dist's workspace rows are longer than one sub-stack and hold the last one's arrays; NaN
        # stands in for those, so a row read before this draw writes it, or after another step
        # has reused it, would show
        count, room = 5, 7
        work = np.full((4, room * n * n), complex(np.nan, np.nan))
        drawn = _haar_unitary_from([(SeedSpec(65, n).generator(), count)], n, _DrawPlan(work, count, n))
        assert_array_equal(drawn, _haar_unitary_from([(SeedSpec(65, n).generator(), count)], n))
        # one plan serves a stream's successive sub-stacks, as in dist, each drawn in rows
        # filled with NaN again
        plan, rng, fresh = _DrawPlan(work, count, n), SeedSpec(66, n).generator(), SeedSpec(66, n).generator()
        for _ in range(3):
            work.fill(complex(np.nan, np.nan))
            assert_array_equal(_haar_unitary_from([(rng, count)], n, plan),
                               _haar_unitary_from([(fresh, count)], n))

    def test_stack_is_unitary(self):
        for n in range(1, 26):
            u = _haar_unitary_from([(SeedSpec(63, n).generator(), 20)], n)
            assert np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(n)).max() < 1e-12, n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_draw_is_the_product_of_its_reflectors(self, n):
        # Stewart's recipe written out: H_1 ... H_n diag(sign beta) from the same Gaussians,
        # with the norms, reflectors and products formed by plain numpy
        rng = SeedSpec(64, n).generator()
        draw = haar_unitary(n, SeedSpec(64, n))
        rows, cols = np.tril_indices(n)
        g = rng.standard_normal((2, len(rows)))
        x = np.zeros((n, n), dtype=complex)
        x[rows, cols] = (g[0] + 1j * g[1]) / np.sqrt(2.0)
        product, signs = np.eye(n, dtype=complex), np.empty(n)
        for j in range(n):
            alpha = x[j, j]
            beta = -np.copysign(np.linalg.norm(x[j:, j]), alpha.real)
            v = np.zeros(n, dtype=complex)
            v[j], v[j + 1:] = 1.0, x[j + 1:, j] / (alpha - beta)
            product = product @ (np.eye(n) - (beta - alpha) / beta * np.outer(v, v.conj()))
            signs[j] = np.sign(beta)
        assert np.abs(draw - product * signs).max() < 1e-13


class TestHouseholderProduct:
    """The one private numpy entry point the Haar draw rests on."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_qr_reduced_returns_the_qr_q(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        h, tau = np.linalg.qr(z, mode="raw")
        reflectors = h.swapaxes(-1, -2)
        q = qr_reduced(reflectors, tau)
        assert_array_equal(q, np.linalg.qr(z)[0])
        # only the strict lower triangle is read, so a reused buffer needs no zeroing
        overwritten = reflectors.copy()
        upper = np.triu_indices(n)
        overwritten[:, upper[0], upper[1]] = np.nan + 7j
        assert_array_equal(qr_reduced(overwritten, tau), q)


class TestHaarTraceMoments:
    """``E|tr U|^2 = 1`` and ``E|tr U|^4 = 2`` for ``n >= 2``: unlike ``|U_00|``, the trace sees
    the column signs, so these fail if the sign fix is dropped or misapplied."""

    @pytest.mark.parametrize("n", [2, 4, 9, 12])
    def test_trace_moments(self, n):
        samples = 20_000
        seed = SeedSpec(27)
        u = np.concatenate([_haar_unitary_from([(seed.substream(b).generator(), samples // 20)], n)
                            for b in range(20)])
        t2 = np.abs(np.trace(u, axis1=1, axis2=2)) ** 2
        for vals, oracle in ((t2, 1.0), (t2 ** 2, 2.0)):
            # level fixed at 4 standard errors
            assert abs(vals.mean() - oracle) < 4 * vals.std(ddof=1) / np.sqrt(samples)


class TestProductStatePair:
    def test_trivial_part(self):
        p1, p2 = product_state_block(Bipartition(1, 1), SeedSpec(1), 1)
        assert p1.shape == (1, 1) and p2.shape == (1, 1)

    def test_product_has_zero_entropy(self):
        part = Bipartition(3, 4)
        p1, p2 = product_state_block(part, SeedSpec(2), 1)
        assert abs(linear_entropy(kron(p1[0], p2[0]), part)) < 1e-12

    def test_factorized_moment(self):
        # E |<00|psi1 x psi2>|^4 = (1/3)^2 at 2x2: the factor averages multiply
        part = Bipartition(2, 2)
        n = 100_000
        p1, p2 = product_state_block(part, SeedSpec(26), n)
        vals = np.abs(p1[:, 0] * p2[:, 0]) ** 4
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / 9.0) < 3 * stderr

    def test_block_matches_single_draw(self):
        # the batched moment tests rely on this: a block's first-factor rows are Haar states
        seed = SeedSpec(5, 17)
        for d in range(1, 8):
            p1 = product_state_block(Bipartition(d, 1), seed, 1)[0]
            assert_array_equal(haar_state(d, seed).ravel(), p1[0])


class TestBlockSizes:
    def test_partition_sums(self):
        assert sum(block_sizes(1000)) == 1000
        assert block_sizes(3) == [1, 1, 1]
        assert len(block_sizes(1000)) == 64

    def test_extra_samples_go_to_the_first_blocks(self):
        # every mc and dist output depends on which stream draws how many samples
        assert block_sizes(130) == [3, 3] + [2] * 62
        assert block_sizes(64 * 5 + 63) == [6] * 63 + [5]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            block_sizes(0)
