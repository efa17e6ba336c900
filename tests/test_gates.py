import json
import re
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entpow import (Bipartition, DimensionError, ResourceLimitError, SeedSpec, ValidationError,
                    clock_matrix, ep_closed, haar_unitary, load_gate, make_additive_permutation,
                    make_basis_permutation, make_bilocal, make_cnot,
                    make_controlled_family, make_identity, make_swap, save_gate,
                    shift_matrix, upper_bound)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def is_permutation_matrix(m):
    real = np.real_if_close(m)
    return (set(np.unique(real)) <= {0.0, 1.0}
            and np.allclose(real.sum(axis=0), 1)
            and np.allclose(real.sum(axis=1), 1))


class TestCnot:
    def test_value(self):
        assert_allclose(ep_closed(make_cnot()).value, 2 / 9, atol=1e-10)

    def test_involution(self):
        m = make_cnot().matrix
        assert_allclose(m @ m, np.eye(4), atol=1e-12)

    def test_action_on_ten(self):
        out = make_cnot().matrix @ np.array([0, 0, 1, 0], dtype=complex)
        assert_allclose(out, np.array([0, 0, 0, 1]), atol=1e-12)

    def test_is_permutation(self):
        assert is_permutation_matrix(make_cnot().matrix)


class TestControlledFamily:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_clock_family_value(self, d):
        g = make_controlled_family(d)
        assert_allclose(ep_closed(g).value, d * (d - 1) / (d + 1) ** 2, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_shift_family_value(self, d):
        # the value depends only on pairwise HS orthogonality, not the family
        fam = [np.linalg.matrix_power(shift_matrix(d), a) for a in range(d)]
        g = make_controlled_family(d, fam)
        assert_allclose(ep_closed(g).value, d * (d - 1) / (d + 1) ** 2, atol=1e-10)

    def test_d2_default_matches_cnot_value(self):
        assert_allclose(ep_closed(make_controlled_family(2)).value,
                        ep_closed(make_cnot()).value, atol=1e-10)

    def test_below_bound_for_large_d(self):
        v = ep_closed(make_controlled_family(4)).value
        assert_allclose(v, 0.48, atol=1e-10)
        assert v < upper_bound(Bipartition(4, 4)) - 0.1

    def test_rejects_non_orthogonal_family(self):
        with pytest.raises(ValidationError, match="orthogonal"):
            make_controlled_family(2, [np.eye(2), np.eye(2)])
        # |<1, diag(e^it, -e^-it)>| = 2 sin(t), above the 1e-8 tolerance at t = 1e-6
        t = 1e-6
        with pytest.raises(ValidationError, match=r"\|<U_0, U_1>\| = 2\.000e-06"):
            make_controlled_family(2, [np.eye(2), np.diag([np.exp(1j * t), -np.exp(-1j * t)])])
        # blocks 0 and 1 are orthogonal, so the first pair named is (0, 2), with tr(1) = 3
        with pytest.raises(ValidationError,
                           match=r"controlled blocks 0 and 2 .* \|<U_0, U_2>\| = 3\.000e\+00"):
            make_controlled_family(3, [np.eye(3), clock_matrix(3), np.eye(3)])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            make_controlled_family(3, [np.eye(3), clock_matrix(3)])

    def test_rejects_blocks_of_the_wrong_size(self):
        # both families pass the orthogonality check, so the size must be checked first
        w = np.exp(2j * np.pi / 3)
        with pytest.raises(DimensionError, match=r"block 0 must be 2x2, got shape \(3, 3\)"):
            make_controlled_family(2, [np.eye(3), np.diag([1, w, w * w])])
        paulis = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        with pytest.raises(DimensionError, match=r"block 0 must be 3x3, got shape \(2, 2\)"):
            make_controlled_family(3, paulis)

    def test_block_structure(self):
        d = 3
        g = make_controlled_family(d)
        m = g.matrix
        z = clock_matrix(d)
        for a in range(d):
            assert_allclose(m[a * d:(a + 1) * d, a * d:(a + 1) * d],
                            np.linalg.matrix_power(z, a), atol=1e-12)
        # oracle: the blocks placed one by one, zeros elsewhere
        expected = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            expected[a * d:(a + 1) * d, a * d:(a + 1) * d] = np.linalg.matrix_power(z, a)
        assert np.array_equal(m, expected)


class TestAdditivePermutation:
    @pytest.mark.parametrize("d,expected", [(3, 1 / 2), (5, 2 / 3)])
    def test_saturates_bound(self, d, expected):
        g = make_additive_permutation(d)
        assert_allclose(ep_closed(g).value, expected, atol=1e-10)
        assert_allclose(ep_closed(g).value, upper_bound(Bipartition(d, d)), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_rejects_even(self, d):
        with pytest.raises(ValidationError):
            make_additive_permutation(d)

    def test_rejects_one(self):
        with pytest.raises(ValidationError):
            make_additive_permutation(1)

    def test_action(self):
        d = 3
        m = make_additive_permutation(d).matrix
        for i in range(d):
            for j in range(d):
                src = np.zeros(d * d)
                src[i * d + j] = 1.0
                out = np.real_if_close(m @ src)
                assert out[((i + j) % d) * d + ((i - j) % d)] == 1.0
        assert is_permutation_matrix(m)


class TestSimpleConstructors:
    def test_swap_value_zero(self):
        assert abs(ep_closed(make_swap(2)).value) < 1e-10
        assert is_permutation_matrix(make_swap(3).matrix)

    def test_bilocal_hadamards(self):
        g = make_bilocal(HADAMARD, HADAMARD)
        assert g.part == Bipartition(2, 2)
        assert abs(ep_closed(g).value) < 1e-10

    def test_bilocal_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            make_bilocal(np.ones((2, 2)), HADAMARD)

    def test_basis_permutation_identity_table(self):
        g = make_basis_permutation(Bipartition(2, 3), range(6))
        assert_allclose(g.matrix, np.eye(6), atol=1e-15)

    def test_bilocal_mixed_dims_and_swapping_table(self):
        assert make_bilocal(HADAMARD, np.eye(3)).part == Bipartition(2, 3)
        m = make_basis_permutation(Bipartition(2, 2), [1, 0, 2, 3]).matrix
        assert is_permutation_matrix(m)
        assert_allclose(m[:, 0], [0, 1, 0, 0])

    @pytest.mark.parametrize("table", [[1.0, 0.0], [True, False]], ids=repr)
    def test_basis_permutation_rejects_non_integer_entries(self, table):
        with pytest.raises(ValidationError, match="must be integers"):
            make_basis_permutation(Bipartition(1, 2), table)

    def test_basis_permutation_rejects_non_bijection(self):
        with pytest.raises(ValidationError, match="bijection"):
            make_basis_permutation(Bipartition(2, 2), [0, 1, 1, 3])

    def test_identity(self):
        assert_allclose(make_identity(Bipartition(2, 4)).matrix, np.eye(8))

    def test_named_permutations_exactly(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        swap3 = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap3[3 * j + i, 3 * i + j] = 1
        for gate, part, expected in [(make_cnot(), Bipartition(2, 2), cnot),
                                     (make_swap(3), Bipartition(3, 3), swap3),
                                     (make_identity(Bipartition(2, 3)), Bipartition(2, 3), np.eye(6))]:
            assert gate.part == part
            assert gate.matrix.dtype == complex
            assert np.array_equal(gate.matrix, expected)

    @pytest.mark.parametrize("d", [0, -1, 2.0])
    def test_swap_rejects_bad_dimension(self, d):
        with pytest.raises(DimensionError):
            make_swap(d)


class TestGateFiles:
    def test_roundtrip(self, tmp_path):
        g = make_controlled_family(3)
        path = tmp_path / "gate.json"
        save_gate(g, path)
        loaded = load_gate(path)
        assert loaded.part == g.part
        assert_allclose(loaded.matrix, g.matrix, atol=1e-15)

    def test_haar_roundtrip_exact(self, tmp_path):
        from entpow import UnitaryGate

        part = Bipartition(2, 3)
        g = UnitaryGate(haar_unitary(6, SeedSpec(61)), part)
        path = tmp_path / "gate.json"
        save_gate(g, path)
        assert np.array_equal(load_gate(path).matrix, g.matrix)

    def test_file_bytes_are_the_per_entry_formatting(self, tmp_path):
        # signed zeros, subnormals and 1e308 are written as float's own repr writes them
        matrix = np.array([[complex(-0.0, 5e-324), complex(1e308, -0.0)],
                           [complex(0.1, -1e308), complex(-2.5e-310, 0.0)]])
        path = tmp_path / "gate.json"
        save_gate(types.SimpleNamespace(d1=1, d2=2, matrix=matrix), path)
        per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        assert path.read_text() == json.dumps({"d1": 1, "d2": 2, "matrix": per_entry})
        assert "-0.0" in path.read_text() and "5e-324" in path.read_text()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_gate(path)

    def test_declared_size_capped_before_the_matrix_is_read(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d1": 1000, "d2": 1000, "matrix": "never parsed"}))
        with pytest.raises(ResourceLimitError, match="d1\\*d2 = 1000000"):
            load_gate(path)

    @pytest.mark.parametrize("field", ["d1", "d2"])
    @pytest.mark.parametrize("bad, other", [(4.9, 1), (True, 4), ("2", 2), (None, 4)])
    def test_non_integer_dimension(self, tmp_path, field, bad, other):
        # truncated by int(), each bad value times ``other`` would fit the 4x4 identity
        eye = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        payload = {"d1": other, "d2": other, "matrix": eye, field: bad}
        path = tmp_path / "eye.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {json.dumps(bad)}"):
            load_gate(path)

    def test_non_integer_dimension_checked_before_the_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d1": 2.0, "d2": 2, "matrix": "never parsed"}))
        with pytest.raises(ValidationError, match="d1 must be an integer, got 2.0"):
            load_gate(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d1": 2, "matrix": []}))
        with pytest.raises(ValidationError, match="malformed"):
            load_gate(path)

    @pytest.mark.parametrize("bad", [[True, False], [0, 0, 99], [1], [], [1, "0"], [1, None],
                                     [[1], 0], "1", 1.0, None, {"re": 1, "im": 0}],
                             ids=json.dumps)
    def test_entry_must_be_two_numbers(self, tmp_path, bad):
        # each bad entry stands where the 4x4 identity has a 0: read by its first two
        # numbers, [0, 0, 99] would load the identity
        eye = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        eye[2][1] = bad
        path = tmp_path / "eye.json"
        path.write_text(json.dumps({"d1": 2, "d2": 2, "matrix": eye}))
        with pytest.raises(ValidationError, match=r"malformed: matrix entry at row 2, column 1 "
                                                  r"must be \[re, im\] with two numbers, got "
                                                  + re.escape(json.dumps(bad))):
            load_gate(path)

    def test_non_unitary_content(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"d1": 2, "d2": 2, "matrix": [[[1, 0]] * 4] * 4}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="not unitary"):
            load_gate(path)
