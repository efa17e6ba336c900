import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entpow import (Bipartition, DimensionError, UnitaryGate, ValidationError, ep_on_states,
                    kraus_from_unitary, kron, linear_entropy, pair_exchange)
from entpow.tensorops import _leading, ensure_finite, permutation_matrix, unit_vector


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBipartition:
    def test_dim(self):
        assert Bipartition(2, 3).dim == 6

    @pytest.mark.parametrize("d1,d2", [(0, 2), (2, 0), (-1, 3)])
    def test_invalid_dims(self, d1, d2):
        with pytest.raises(DimensionError):
            Bipartition(d1, d2)

    @pytest.mark.parametrize("d1,d2", [(2.5, 2), (2, 2.0), (True, 2), (2, np.True_), ("3", 2), (None, 2)],
                             ids=["float", "integral-float", "bool", "numpy-bool", "str", "none"])
    def test_non_integer_dims(self, d1, d2):
        with pytest.raises(DimensionError, match="must be integers"):
            Bipartition(d1, d2)

    def test_numpy_integer_dims(self):
        assert Bipartition(np.int64(2), np.int32(3)).dim == 6


class TestEnsureFinite:
    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan), complex(0, np.inf),
                                     complex(-np.inf, 1)], ids=repr)
    def test_rejects_a_non_finite_real_or_imaginary_part(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValidationError, match="block contains non-finite entries"):
            ensure_finite(m, "block")


class TestUnitVector:
    def test_returns_the_flat_complex_vector(self):
        v = np.array([[0.6], [0.8j]])
        got = unit_vector(v, 2, "state")
        assert got.shape == (2,) and got.dtype == complex
        assert np.array_equal(got, v.ravel())

    def test_tolerance_is_1e_10(self):
        with pytest.raises(ValidationError, match=r"^state is not normalized: \|norm - 1\| = 1\.000e-08$"):
            unit_vector((1 + 1e-8) * np.array([1.0, 0.0]), 2, "state")
        unit_vector((1 + 1e-12) * np.array([1.0, 0.0]), 2, "state")

    def test_rejects_wrong_length_and_non_finite(self):
        with pytest.raises(DimensionError, match="^fixed state has dimension 3, expected 2$"):
            unit_vector(np.array([1.0, 0.0, 0.0]), 2, "fixed state")
        with pytest.raises(ValidationError, match="state contains non-finite entries"):
            unit_vector(np.array([np.nan, 1.0]), 2, "state")

    def test_admits_a_row(self):
        assert np.array_equal(unit_vector(np.array([[0.6, 0.8j]]), 2, "state"), [0.6, 0.8j])

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2), (4, 1, 1), ()], ids=str)
    def test_refuses_any_other_shape(self, shape):
        v = np.full(shape, 0.5)
        with pytest.raises(DimensionError, match=rf"^state has shape {re.escape(str(shape))}, "
                                                 r"expected \(4,\), \(4, 1\) or \(1, 4\)$"):
            unit_vector(v, 4, "state")

    # a 2x2 matrix of norm 1 (here a Bell state's coefficients) has the entry count of a
    # 4-dimensional state, and must not be read as one
    @pytest.mark.parametrize("call, what", [
        (lambda m: linear_entropy(m, Bipartition(2, 2)), "state"),
        (lambda m: kraus_from_unitary(UnitaryGate(np.eye(8), Bipartition(2, 4)), m), "fixed state"),
        (lambda m: ep_on_states(UnitaryGate(np.eye(8), Bipartition(2, 4)), [([1.0, 0.0], m)]),
         "second-factor state"),
    ], ids=["linear_entropy", "kraus_from_unitary", "ep_on_states"])
    def test_matrices_are_not_read_as_states(self, call, what):
        with pytest.raises(DimensionError, match=rf"^{what} has shape \(2, 2\)"):
            call(np.eye(2) / np.sqrt(2))


def test_leading_is_a_view_of_the_first_entries():
    buf = np.arange(10.0)
    slot = _leading(buf, (2, 3))
    assert np.array_equal(slot, np.arange(6.0).reshape(2, 3))
    slot[1, 2] = -1.0
    assert buf[5] == -1.0 and buf[6] == 6.0


class TestKron:
    def test_identity_case(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_permutation_structure(self):
        x = np.array([[0, 1], [1, 0]])
        m = kron(x, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        assert_allclose(m, expected)

    def test_trace_multiplies(self):
        # oracle: trace of the fully expanded product
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rand_c(rng, 2, 2)
            b = rand_c(rng, 2, 2)
            assert_allclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12)

    def test_associative_and_bilinear(self):
        rng = np.random.default_rng(12)
        a, b, c = (rand_c(rng, 2, 2) for _ in range(3))
        assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
        s, t = rng.standard_normal(2)
        assert_allclose(kron(s * a + t * b, c), s * kron(a, c) + t * kron(b, c), atol=1e-12)
        assert_allclose(kron(a, s * b + t * c), s * kron(a, b) + t * kron(a, c), atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            kron(np.eye(100), np.eye(100))
        with pytest.raises(DimensionError, match="kron result 1x2500"):
            kron(np.ones((1, 50)), np.ones((1, 50)))


class TestPermutationMatrix:
    def test_sends_basis_vector_k_to_its_image(self):
        images = [2, 0, 3, 1]
        m = permutation_matrix(images)
        assert m.dtype == np.float64
        for k, image in enumerate(images):
            assert np.array_equal(m[:, k], np.eye(4)[image])

    def test_stack_matches_one_table_at_a_time(self):
        rng = np.random.default_rng(5)
        tables = np.array([rng.permutation(6) for _ in range(7)])
        stack = permutation_matrix(tables)
        assert stack.shape == (7, 6, 6)
        for table, m in zip(tables, stack):
            assert np.array_equal(m, permutation_matrix(table))
        assert np.array_equal(permutation_matrix(tables.reshape(7, 1, 6)), stack[:, None])

    def test_identity_table(self):
        assert np.array_equal(permutation_matrix(range(5)), np.eye(5))


class TestPairExchange:
    @pytest.mark.parametrize("part,which,expected", [
        (Bipartition(2, 2), "T13", 8),     # d1 * d2^2
        (Bipartition(2, 3), "T13", 18),
        (Bipartition(2, 3), "T24", 12),    # d1^2 * d2
        (Bipartition(2, 2), "T24", 8),
    ])
    def test_traces(self, part, which, expected):
        assert_allclose(np.trace(pair_exchange(part, which)), expected)

    def test_full_copy_swap_trace(self):
        # oracle: build the swap of copies explicitly from its action on basis kets
        part = Bipartition(2, 2)
        n = part.dim
        explicit = np.zeros((n * n, n * n))
        for a in range(n):
            for b in range(n):
                explicit[b * n + a, a * n + b] = 1.0
        got = pair_exchange(part, "T13T24")
        assert_allclose(got, explicit)
        assert_allclose(np.trace(got), 4)

    @pytest.mark.parametrize("which", ["T13", "T24", "T13T24"])
    def test_permutation_structure(self, which):
        m = pair_exchange(Bipartition(2, 3), which)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert_allclose(m.sum(axis=0), 1.0)
        assert_allclose(m.sum(axis=1), 1.0)

    def test_involution_and_commutation(self):
        part = Bipartition(2, 3)
        t13 = pair_exchange(part, "T13")
        t24 = pair_exchange(part, "T24")
        assert_allclose(t13 @ t13, np.eye(t13.shape[0]), atol=1e-12)
        assert_allclose(t13 @ t24, t24 @ t13, atol=1e-12)
        assert_allclose(t13 @ t24, pair_exchange(part, "T13T24"), atol=1e-12)

    def test_first_factor_unitary_commutes_with_t13(self):
        from entpow import haar_unitary, SeedSpec

        part = Bipartition(2, 3)
        u1 = haar_unitary(2, SeedSpec(3))
        lifted = kron(kron(u1, np.eye(3)), kron(u1, np.eye(3)))
        t13 = pair_exchange(part, "T13")
        assert_allclose(lifted @ t13, t13 @ lifted, atol=1e-12)

    def test_bad_selector(self):
        with pytest.raises(ValidationError):
            pair_exchange(Bipartition(2, 2), "T12")

