import numpy as np
import pytest
from numpy.testing import assert_allclose

from entpow import (Bipartition, DimensionError, SeedSpec, UnitaryGate, ValidationError,
                    ep_closed, haar_gate, haar_state, haar_unitary, kraus_from_unitary,
                    kron, linear_entropy, make_additive_permutation, make_cnot,
                    make_identity, partial_ep, partial_ep_bound, unitality_gap,
                    upper_bound)

P22 = Bipartition(2, 2)
P23 = Bipartition(2, 3)


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


class TestKrausExtraction:
    def test_identity_gate(self):
        psi2 = ket(0.3, 1j, -2)
        fam = kraus_from_unitary(make_identity(P23), psi2)
        for j, a in enumerate(fam.a_ops):
            assert_allclose(a, psi2[j] * np.eye(2), atol=1e-12)

    def test_cnot_column_reading(self):
        # oracle: A_j[i, k] read directly off the 4x4 matrix at rows (i,j), column (k,0)
        gate = make_cnot()
        fam = kraus_from_unitary(gate, ket(1, 0))
        for j in range(2):
            explicit = np.array([[gate.matrix[i * 2 + j, k * 2 + 0] for k in range(2)]
                                 for i in range(2)])
            assert_allclose(fam.a_ops[j], explicit, atol=1e-12)
        assert_allclose(fam.a_ops[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert_allclose(fam.a_ops[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_shapes(self):
        fam = kraus_from_unitary(haar_gate(P23, SeedSpec(41)), ket(1, 1, 1))
        assert len(fam.a_ops) == 3 and all(a.shape == (2, 2) for a in fam.a_ops)
        assert len(fam.tilde_ops) == 2 and all(a.shape == (3, 2) for a in fam.tilde_ops)
        with pytest.raises(ValueError, match="read-only"):
            fam.a_ops[0, 0, 0] = 2.0

    def test_completeness_and_traces(self):
        seed = SeedSpec(42)
        for i in range(100):
            part = P22 if i % 2 else P23
            g = haar_gate(part, seed.substream(2 * i))
            psi2 = haar_state(part.d2, seed.substream(2 * i + 1)).ravel()
            fam = kraus_from_unitary(g, psi2)
            total = sum(a.conj().T @ a for a in fam.a_ops)
            assert np.abs(total - np.eye(part.d1)).max() < 1e-10
            assert abs(np.trace(fam.x_op) - part.d1) < 1e-10
            assert abs(np.trace(fam.x_tilde_op) - part.d1) < 1e-10

    @pytest.mark.parametrize("part", [P22, P23, Bipartition(3, 2)], ids=str)
    def test_gram_route_matches_explicit_sums(self, part):
        seed = SeedSpec(43)
        for i in range(20):
            g = haar_gate(part, seed.substream(2 * i))
            psi2 = haar_state(part.d2, seed.substream(2 * i + 1)).ravel()
            fam = kraus_from_unitary(g, psi2)
            x = sum(a @ a.conj().T for a in fam.a_ops)
            x_tilde = sum(a @ a.conj().T for a in fam.tilde_ops)
            assert np.abs(fam.x_op - x).max() <= 1e-14
            assert np.abs(fam.x_tilde_op - x_tilde).max() <= 1e-14

    def test_rejects_bad_fixed_state(self):
        with pytest.raises(ValidationError):
            kraus_from_unitary(make_cnot(), np.array([1.0, 1.0]))

    def test_completeness_defect_is_refused(self):
        # gate and state each pass their own 1e-10 check, but the family's defect
        # |1 + 4.9e-11|^4 - 1 does not pass the completeness check
        s = 1 + 4.9e-11
        gate = UnitaryGate(s * np.eye(4), P22)
        with pytest.raises(ValidationError, match=r"Kraus completeness defect 1\.960e-10 exceeds"):
            kraus_from_unitary(gate, s * np.array([1.0, 0.0]))
        with pytest.raises(DimensionError):
            kraus_from_unitary(make_cnot(), ket(1, 0, 0))
        with pytest.raises(ValidationError, match="fixed state is not normalized"):
            kraus_from_unitary(make_cnot(), (1 + 1e-8) * np.array([1.0, 0.0]))

    def test_fixed_state_refusal_prints_the_deviation(self):
        with pytest.raises(ValidationError,
                           match=r"^fixed state is not normalized: \|norm - 1\| = 1\.000e-08$"):
            kraus_from_unitary(make_cnot(), (1 + 1e-8) * np.array([1.0, 0.0]))


class TestPartialEp:
    def test_identity_gate_zero(self):
        seed = SeedSpec(43)
        for i in range(5):
            psi2 = haar_state(4, seed.substream(i)).ravel()
            fam = kraus_from_unitary(make_identity(Bipartition(3, 4)), psi2)
            assert abs(partial_ep(fam)) < 1e-10

    def test_cnot_fixed_zero(self):
        fam = kraus_from_unitary(make_cnot(), ket(1, 0))
        assert_allclose(partial_ep(fam), 1 / 3, atol=1e-12)

    def test_matches_restricted_monte_carlo(self):
        # oracle: average output linear entropy over Haar first-factor inputs
        g = haar_gate(P23, SeedSpec(44))
        psi2 = haar_state(3, SeedSpec(45)).ravel()
        fam = kraus_from_unitary(g, psi2)
        seed = SeedSpec(46)
        n = 20000
        vals = np.empty(n)
        for i in range(n):
            p1 = haar_state(2, seed.substream(i))
            vals[i] = linear_entropy(g.matrix @ kron(p1, psi2.reshape(-1, 1)), P23)
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(partial_ep(fam) - vals.mean()) < 4 * stderr

    def test_average_over_fixed_states_recovers_global(self):
        g = haar_gate(P22, SeedSpec(47))
        seed = SeedSpec(48)
        n = 2000
        vals = np.array([
            partial_ep(kraus_from_unitary(g, haar_state(2, seed.substream(i)).ravel()))
            for i in range(n)
        ])
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - ep_closed(g).value) < 4 * stderr

    def test_fixed_state_rotation_absorbed_into_gate(self):
        g = haar_gate(P23, SeedSpec(49))
        psi2 = haar_state(3, SeedSpec(50)).ravel()
        v = haar_unitary(3, SeedSpec(51))
        base = partial_ep(kraus_from_unitary(g, psi2))
        moved = UnitaryGate(g.matrix @ kron(np.eye(2), v.conj().T), P23)
        rotated = partial_ep(kraus_from_unitary(moved, v @ psi2))
        assert abs(base - rotated) < 1e-10

    def test_slicing_basis_independent(self):
        # rotating the second factor after the gate re-slices the Kraus family
        # in a rotated basis; the trace functional must not move
        g = haar_gate(P23, SeedSpec(52))
        psi2 = haar_state(3, SeedSpec(53)).ravel()
        v = haar_unitary(3, SeedSpec(54))
        resliced = UnitaryGate(kron(np.eye(2), v.conj().T) @ g.matrix, P23)
        assert abs(partial_ep(kraus_from_unitary(g, psi2))
                   - partial_ep(kraus_from_unitary(resliced, psi2))) < 1e-10


class TestBoundMechanics:
    def test_separate_trace_bounds(self):
        seed = SeedSpec(55)
        for i in range(50):
            part = P22 if i % 2 else P23
            g = haar_gate(part, seed.substream(2 * i))
            psi2 = haar_state(part.d2, seed.substream(2 * i + 1)).ravel()
            fam = kraus_from_unitary(g, psi2)
            x, xt = fam.x_op, fam.x_tilde_op
            assert np.trace(x @ x).real >= part.d1 - 1e-10
            assert np.trace(xt @ xt).real >= part.d1 ** 2 / part.d2 - 1e-10
            assert partial_ep(fam) <= partial_ep_bound(g) + 1e-10

    def test_partial_bound_matches_global_on_square(self):
        for d in (2, 3, 4):
            g = make_identity(Bipartition(d, d))
            assert_allclose(partial_ep_bound(g), upper_bound(g.part), atol=1e-15)

    def test_fixed_state_value_can_exceed_global_bound(self):
        # three HS-orthogonal unitary blocks give Kraus operators U_j/sqrt(3):
        # both trace bounds are saturated at once, so the fixed-state value hits
        # (d1 - d1/d2)/(d1+1) = 4/9, above the 3/8 cap that only constrains the
        # average over fixed states
        blocks = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        iso = np.zeros((6, 2), dtype=complex)
        for j, b in enumerate(blocks):
            iso[np.arange(2) * 3 + j, :] = b / np.sqrt(3)
        rng = np.random.default_rng(56)
        filler = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        full, _ = np.linalg.qr(np.hstack([iso, filler]))
        m = np.zeros((6, 6), dtype=complex)
        m[:, [0, 3]] = full[:, :2]   # the two columns hit by psi2 = |0>
        m[:, [1, 2, 4, 5]] = full[:, 2:]
        g = UnitaryGate(m, P23)
        fam = kraus_from_unitary(g, np.array([1.0, 0, 0], dtype=complex))
        assert_allclose(partial_ep(fam), 4 / 9, atol=1e-10)
        assert partial_ep(fam) > upper_bound(P23)
        # the gate-level average still respects the global bound
        assert ep_closed(g).value <= upper_bound(P23) + 1e-10


class TestUnitalityGap:
    def test_identity_first_gap_zero(self):
        fam = kraus_from_unitary(make_identity(P22), ket(1, 1))
        g1, g2 = unitality_gap(fam)
        assert g1 < 1e-12
        assert g2 > 0.1  # Xtilde is rank one for the identity gate

    def test_additive_permutation_doubly_unital(self):
        g = make_additive_permutation(3)
        for b in range(3):
            psi2 = np.zeros(3, dtype=complex)
            psi2[b] = 1.0
            g1, g2 = unitality_gap(kraus_from_unitary(g, psi2))
            assert g1 < 1e-12 and g2 < 1e-12

    def test_cnot_plus_state_second_gap_positive(self):
        g1, g2 = unitality_gap(kraus_from_unitary(make_cnot(), ket(1, 1)))
        assert g1 < 1e-12
        assert g2 > 1e-3
