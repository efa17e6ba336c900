import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from entpow import Bipartition, DimensionError, SeedSpec, ValidationError, haar_state, haar_unitary, kron, linear_entropy, product_state_pair
from entpow.sampling import _haar_unitary_from, block_sizes, product_state_block


def _moment(fn, d, n, seed):
    vals = np.array([fn(haar_state(d, seed.substream(i))) for i in range(n)])
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
        with pytest.raises(ValidationError):
            SeedSpec(3, -2)

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
        mean, stderr = _moment(lambda p: float(np.abs(p[0, 0]) ** 4), d, n, SeedSpec(21))
        assert abs(mean - oracle) < 3 * stderr

    def test_cross_moment(self):
        # E |<0|psi>|^2 |<1|psi>|^2 = 1/(d(d+1))
        d, n = 2, 100_000
        oracle = 1.0 / (d * (d + 1))
        mean, stderr = _moment(
            lambda p: float(np.abs(p[0, 0]) ** 2 * np.abs(p[1, 0]) ** 2), d, n, SeedSpec(22))
        assert abs(mean - oracle) < 3 * stderr

    def test_unitary_invariance_of_moments(self):
        # rotating by a fixed V must leave the overlap moments unchanged
        d, n = 2, 40_000
        v = haar_unitary(d, SeedSpec(77))
        mean, stderr = _moment(lambda p: float(np.abs((v @ p)[0, 0]) ** 4), d, n, SeedSpec(23))
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
    """The one-matrix Ginibre recipe: real block, imaginary block, QR, phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestStackedHaarDraw:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12])
    def test_stack_equals_successive_draws(self, n):
        # two sub-stacks of 5 and 3 from one stream, then a single draw
        rng = SeedSpec(61, n).generator()
        stacked = np.concatenate([_haar_unitary_from(rng, n, 5), _haar_unitary_from(rng, n, 3),
                                  _haar_unitary_from(rng, n)[None]])
        ref_rng = SeedSpec(61, n).generator()
        singles = np.stack([per_matrix_draw(ref_rng, n) for _ in range(9)])
        assert stacked.shape == (9, n, n)
        assert_array_equal(stacked, singles)
        assert_array_equal(stacked[0], haar_unitary(n, SeedSpec(61, n)))

    def test_single_draw_is_two_dimensional(self):
        rng = SeedSpec(62).generator()
        assert _haar_unitary_from(rng, 3).shape == (3, 3)
        assert _haar_unitary_from(rng, 3, 1).shape == (1, 3, 3)

    def test_stack_is_unitary(self):
        u = _haar_unitary_from(SeedSpec(63).generator(), 5, 20)
        assert np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(5)).max() < 1e-12


class TestProductStatePair:
    def test_trivial_part(self):
        p1, p2 = product_state_pair(Bipartition(1, 1), SeedSpec(1))
        assert p1.shape == (1, 1) and p2.shape == (1, 1)

    def test_product_has_zero_entropy(self):
        part = Bipartition(3, 4)
        p1, p2 = product_state_pair(part, SeedSpec(2))
        assert abs(linear_entropy(kron(p1, p2), part)) < 1e-12

    def test_factorized_moment(self):
        # E |<00|psi1 x psi2>|^4 = (1/3)^2 at 2x2: the factor averages multiply
        part = Bipartition(2, 2)
        n = 100_000
        seed = SeedSpec(26)
        vals = np.empty(n)
        for i in range(n):
            p1, p2 = product_state_pair(part, seed.substream(i))
            vals[i] = np.abs(p1[0, 0] * p2[0, 0]) ** 4
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / 9.0) < 3 * stderr

    def test_block_matches_single_draw(self):
        part = Bipartition(2, 3)
        seed = SeedSpec(5, 17)
        p1, p2 = product_state_pair(part, seed)
        b1, b2 = product_state_block(part, seed, 1)
        assert_array_equal(p1.ravel(), b1[0])
        assert_array_equal(p2.ravel(), b2[0])


class TestBlockSizes:
    def test_partition_sums(self):
        assert sum(block_sizes(1000)) == 1000
        assert block_sizes(3) == [1, 1, 1]
        assert len(block_sizes(1000)) == 64

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            block_sizes(0)
