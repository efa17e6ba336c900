import numpy as np
import pytest

import entpow.power
from numpy.testing import assert_allclose

from entpow.power import _EvalPlan, _gradients
from entpow.sampling import product_state_block

from entpow import (Bipartition, DimensionError, ResourceLimitError, SeedSpec, UnitaryGate,
                    ValidationError, ep_closed, ep_dense_oracle, ep_monte_carlo, ep_on_states,
                    ep_value, ep_values,
                    haar_gate, haar_mean, haar_unitary, kraus_from_unitary, kron, linear_entropy,
                    make_basis_permutation, make_cnot, make_identity, make_swap,
                    swap_symmetric_ep, upper_bound)

P22 = Bipartition(2, 2)
PARTS = [Bipartition(2, 2), Bipartition(2, 3), Bipartition(3, 3), Bipartition(2, 4)]


def ket(*amps):
    v = np.array(amps, dtype=complex).reshape(-1, 1)
    return v / np.linalg.norm(v)


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="not unitary"):
            UnitaryGate(np.ones((4, 4)), P22)

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionError):
            UnitaryGate(np.eye(5), P22)

    def test_unitarity_tolerance_is_1e_10(self):
        with pytest.raises(ValidationError, match=r"\|U\^dag U - 1\| = 2\.000e-08"):
            UnitaryGate((1 + 1e-8) * np.eye(4), P22)
        UnitaryGate((1 + 1e-12) * np.eye(4), P22)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            UnitaryGate(m, P22)

    def test_matrix_is_read_only(self):
        g = make_cnot()
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 0

    def test_keeps_its_own_copy(self):
        m = np.eye(4, dtype=complex)
        g = UnitaryGate(m, P22)
        m[0, 0] = 5     # the caller's array stays writable, and writing it leaves the gate alone
        assert g.matrix[0, 0] == 1
        base = np.array(make_cnot().matrix)
        g = UnitaryGate(base[:], P22)
        base[0, 0] = 5
        assert ep_closed(g).value == ep_closed(make_cnot()).value


class TestLinearEntropy:
    def test_product_state_is_zero(self):
        psi = kron(ket(1, 2j), ket(3, 0, 1))
        assert abs(linear_entropy(psi, Bipartition(2, 3))) < 1e-12

    def test_bell_state(self):
        bell = ket(1, 0, 0, 1)
        assert_allclose(linear_entropy(bell, P22), 0.5, atol=1e-12)

    def test_tilted_superposition(self):
        # oracle: the reduced matrix is diag(0.9, 0.1), purity 0.82
        psi = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], dtype=complex)
        assert_allclose(linear_entropy(psi, P22), 0.18, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="not normalized"):
            linear_entropy(np.array([1.0, 1.0, 0, 0]), P22)
        with pytest.raises(ValidationError, match=r"\|norm - 1\| = 1\.000e-08"):
            linear_entropy((1 + 1e-8) * np.array([1.0, 0, 0, 0]), P22)

    def test_flat_and_column_shapes(self):
        psi = haar_unitary(6, SeedSpec(32))[:, 0]
        part = Bipartition(2, 3)
        flat = linear_entropy(psi, part)
        assert 0 < flat < 0.5
        assert linear_entropy(psi.reshape(-1, 1), part) == flat
        assert linear_entropy(psi.reshape(1, -1), part) == flat
        with pytest.raises(DimensionError):
            linear_entropy(psi[:4], part)

    @pytest.mark.parametrize("d1, d2", [(3, 2), (4, 2), (5, 3), (6, 1)])
    def test_swapping_the_factors_keeps_every_bit(self, d1, d2):
        # both orders take the purity from the smaller reduction's Gram, the same matrix product;
        # the larger reduction's Gram has the same purity but rounds it differently
        for i in range(20):
            psi = haar_unitary(d1 * d2, SeedSpec(33, i))[:, 0]
            swapped = psi.reshape(d1, d2).T.ravel()
            assert linear_entropy(psi, Bipartition(d1, d2)) == linear_entropy(swapped, Bipartition(d2, d1))

    def test_range(self):
        seed = SeedSpec(31)
        part = Bipartition(2, 5)
        cap = 1 - 1 / min(2, 5)    # 1 - 1/min(d1, d2)
        for i in range(50):
            psi = haar_unitary(10, seed.substream(i))[:, 0]
            e = linear_entropy(psi, part)
            assert -1e-12 <= e <= cap + 1e-12


class TestClosedForm:
    @pytest.mark.parametrize("part", PARTS)
    def test_identity_is_zero(self, part):
        assert abs(ep_closed(make_identity(part)).value) < 1e-10

    def test_cnot(self):
        assert_allclose(ep_closed(make_cnot()).value, 2 / 9, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_swap_is_zero(self, d):
        assert abs(ep_closed(make_swap(d)).value) < 1e-10

    def test_identity_trace_sum(self):
        # at the identity the two exchange traces sum to d1 d2 (d1+1)(d2+1),
        # which is exactly what forces the value to zero
        for part in PARTS:
            r = ep_closed(make_identity(part))
            expected = part.d1 * part.d2 * (part.d1 + 1) * (part.d2 + 1)
            assert_allclose(r.i0 + r.i1, expected, atol=1e-8)

    def test_report_fields(self):
        r = ep_closed(make_cnot())
        assert r.method == "closed_form"
        assert r.mc_samples is None
        assert_allclose(r.haar_mean, 0.2)
        assert_allclose(r.upper_bound, 1 / 3)
        assert_allclose(r.gap_to_bound, 1 / 3 - 2 / 9)


def tensordot_i0_i1(m, part):
    """The closed-form traces through two tensordots and vdot, one gate at a time.

    ``T0`` is contracted on the smaller side: over the d2 indices when ``d1 <= d2``,
    over the d1 indices otherwise, as the kernel takes it.
    """
    d1, d2 = part.d1, part.d2
    u = m.reshape(d1, d2, d1, d2)
    side = [1, 3] if d1 <= d2 else [0, 2]
    t0 = np.tensordot(u, u.conj(), axes=(side, side))
    t1 = np.tensordot(u, u.conj(), axes=([0, 3], [0, 3]))
    return d1 * d2 * d2 + float(np.vdot(t0, t0).real), d1 * d1 * d2 + float(np.vdot(t1, t1).real)


SMALL_PARTS = [Bipartition(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5)]


def gradients(stack, part):
    """:func:`_gradients` at a stack of gates, from the Grams of a one-shot plan."""
    plan = _EvalPlan(stack, part)
    plan.traces()
    return _gradients(*plan.grams, part)


class TestStackedKernel:
    @pytest.mark.parametrize("part", SMALL_PARTS, ids=str)
    def test_matches_tensordot_reference_bit_for_bit(self, part):
        stack = np.stack([haar_unitary(part.dim, SeedSpec(41, k)) for k in range(40)])
        c = 1.0 / (part.d1 * (part.d1 + 1)) * (1.0 / (part.d2 * (part.d2 + 1)))
        ref = np.array([1.0 - c * sum(tensordot_i0_i1(m, part)) for m in stack])
        got = ep_values(stack, part)
        if (part.d1, part.d2) == (3, 1):
            # With d2 = 1 the I0 product has one inner term.  For 9 rows np.dot
            # and the batched matmul round that single product differently, so
            # values that are exactly 0 differ in the last bit.
            assert np.abs(got - ref).max() <= 1e-15 and np.abs(got).max() <= 1e-15
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("part", SMALL_PARTS, ids=str)
    def test_report_traces_match_reference(self, part):
        exact = (part.d1, part.d2) != (3, 1)     # see the value test
        for k in range(10):
            g = haar_gate(part, SeedSpec(42, k))
            r = ep_closed(g)
            ref = tensordot_i0_i1(g.matrix, part)
            if exact:
                assert (r.i0, r.i1) == ref
            else:
                assert_allclose((r.i0, r.i1), ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("part", SMALL_PARTS, ids=str)
    def test_workspace_equals_the_allocating_path(self, part):
        # rows longer than the stack and NaN-filled before each use, so a slot read before it
        # is written shows; each plan serves every stack later copied into the array it was
        # built on: one on five rows, one on three rows passed as five, as dist passes them
        count, n = 6, part.dim
        five = np.empty((5, 9 * n * n), dtype=complex)
        three = np.empty((3, 9 * n * n), dtype=complex)
        held = np.empty((count, n, n), dtype=complex)
        rows = [(five, five), (three, [three[i] for i in (0, 1, 2, 1, 2)])]
        plans = [_EvalPlan(held, part, work) for _, work in rows]
        for k in range(3):
            stack = np.stack([haar_unitary(n, SeedSpec(44 + k, j)) for j in range(count)])
            expected = ep_values(stack, part)
            held[...] = stack
            for (array, work), plan in zip(rows, plans):
                array.fill(complex(np.nan, np.nan))
                assert np.array_equal(ep_values(held, part, plan), expected)
                array.fill(complex(np.nan, np.nan))
                assert np.array_equal(ep_values(stack, part, _EvalPlan(stack, part, work)), expected)

    @pytest.mark.parametrize("part", [P22, Bipartition(2, 3), Bipartition(4, 2), Bipartition(1, 3)], ids=str)
    def test_first_count_gates_equal_a_plan_on_the_leading_stack(self, part):
        # traces and Grams of a plan's first count gates are those of a one-shot plan on
        # stack[:count], bit for bit, whatever the rows hold past them
        n_gates, n = 7, part.dim
        stack = np.stack([haar_unitary(n, SeedSpec(45, j)) for j in range(n_gates)])
        work = np.full((5, n_gates * n * n), complex(np.nan, np.nan))
        plan = _EvalPlan(stack, part, work)
        for count in (0, 1, n_gates - 1, n_gates):
            work.fill(complex(np.nan, np.nan))
            leading = _EvalPlan(stack[:count], part)
            expected = leading.traces()
            got = plan.traces(count)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))
            assert all(g.shape == (count,) for g in got)
            assert all(np.array_equal(g[:count], e) for g, e in zip(plan.grams, leading.grams))

    @pytest.mark.parametrize("part", [P22, Bipartition(2, 3), Bipartition(4, 2), Bipartition(1, 3)], ids=str)
    def test_empty_stack_gives_no_values(self, part):
        stack = np.empty((0, part.dim, part.dim), dtype=complex)
        for plan in (None, _EvalPlan(stack, part, np.empty((5, 0), dtype=complex))):
            values = ep_values(stack, part, plan)
            assert values.shape == (0,) and values.dtype == np.float64
        assert gradients(stack, part).shape == stack.shape

    @pytest.mark.parametrize("part", PARTS + [Bipartition(1, 3), Bipartition(3, 1)], ids=str)
    def test_single_gate_is_the_stack_of_one(self, part):
        stack = np.stack([haar_unitary(part.dim, SeedSpec(43, k)) for k in range(25)])
        values = ep_values(stack, part)
        for m, v in zip(stack, values):
            assert ep_value(m, part) == ep_values(m[None], part)[0] == v
            assert ep_closed(UnitaryGate(m, part)).value == v

    def test_shape_and_real_input(self):
        part = Bipartition(2, 3)
        tables = [np.random.default_rng(k).permutation(6) for k in range(5)]
        perms = np.stack([make_basis_permutation(part, t).matrix for t in tables])
        values = ep_values(perms.real, part)
        assert values.shape == (5,) and values.dtype == np.float64
        assert_allclose(values, [ep_closed(UnitaryGate(m, part)).value for m in perms], atol=1e-15)


class TestGradient:
    @pytest.mark.parametrize("part", SMALL_PARTS, ids=str)
    def test_matches_finite_differences(self, part):
        rng = np.random.default_rng(part.dim)
        h = 1e-6
        for k in range(3):
            u = haar_unitary(part.dim, SeedSpec(44, k))
            grad = gradients(u, part)[0]
            for _ in range(4):
                dz = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
                dz /= np.linalg.norm(dz)
                slope = (ep_value(u + h * dz, part) - ep_value(u - h * dz, part)) / (2 * h)
                # convention de = Re tr(G^dag dU)
                assert abs(slope - np.vdot(grad, dz).real) <= 1e-8

    def test_vanishes_on_the_tangent_space_at_the_cnot_optimum(self):
        u = make_cnot().matrix
        grad = gradients(u, P22)[0]
        omega = grad @ u.conj().T - u @ grad.conj().T
        assert np.abs(omega).max() <= 1e-14


class TestDenseOracle:
    def test_identity_and_cnot(self):
        assert abs(ep_dense_oracle(make_identity(P22)).value) < 1e-12
        assert_allclose(ep_dense_oracle(make_cnot()).value, 2 / 9, atol=1e-10)

    def test_matches_closed_form_on_haar_gates(self):
        part = Bipartition(2, 3)
        seed = SeedSpec(32)
        for i in range(200):
            g = haar_gate(part, seed.substream(i))
            a = ep_closed(g)
            b = ep_dense_oracle(g)
            assert abs(a.value - b.value) < 1e-10
            assert abs(a.i0 - b.i0) < 1e-7
            assert abs(a.i1 - b.i1) < 1e-7

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(entpow.power, "DENSE_ORACLE_MAX_DIM", 4)
        assert abs(ep_dense_oracle(make_cnot()).value - 2 / 9) < 1e-12
        with pytest.raises(ResourceLimitError, match=r"d1\*d2 <= 4, got 6"):
            ep_dense_oracle(make_identity(Bipartition(2, 3)))

    def test_dimension_cap(self):
        part = Bipartition(6, 7)
        with pytest.raises(ResourceLimitError, match=r"dense oracle supports d1\*d2 <= 36, got 42"):
            ep_dense_oracle(make_identity(part))


class TestMonteCarlo:
    def test_cnot_matches(self):
        r = ep_monte_carlo(make_cnot(), 20000, SeedSpec(7))
        assert abs(r.value - 2 / 9) < 4 * r.mc_stderr
        assert r.mc_samples == 20000

    def test_identity_is_exactly_zero(self):
        r = ep_monte_carlo(make_identity(Bipartition(3, 3)), 500, SeedSpec(8))
        assert abs(r.value) < 1e-12

    def test_haar_gate_matches_closed(self):
        g = haar_gate(Bipartition(3, 3), SeedSpec(9))
        r = ep_monte_carlo(g, 20000, SeedSpec(10))
        assert abs(r.value - ep_closed(g).value) < 4 * r.mc_stderr

    def test_deterministic(self):
        g = haar_gate(P22, SeedSpec(11))
        a = ep_monte_carlo(g, 3000, SeedSpec(12))
        b = ep_monte_carlo(g, 3000, SeedSpec(12))
        assert a.value == b.value

    def test_stderr_of_two_samples(self):
        # one sample per stream block; the sample standard deviation (ddof=1) of two values
        # is |v0 - v1| / sqrt(2), so the standard error of their mean is |v0 - v1| / 2
        g, seed = haar_gate(Bipartition(2, 3), SeedSpec(13)), SeedSpec(14)
        v0, v1 = (linear_entropy(g.matrix @ kron(p1.reshape(-1, 1), p2.reshape(-1, 1)), g.part)
                  for p1, p2 in (product_state_block(g.part, seed.substream(b), 1) for b in (0, 1)))
        r = ep_monte_carlo(g, 2, seed)
        assert abs(v0 - v1) > 0.01
        assert r.value == pytest.approx((v0 + v1) / 2, abs=1e-14)
        assert r.mc_stderr == pytest.approx(abs(v0 - v1) / 2, rel=1e-12)

    def test_rejects_no_samples(self):
        with pytest.raises(ValidationError):
            ep_monte_carlo(make_cnot(), 0, SeedSpec(0))
        # a standard error needs two samples
        with pytest.raises(ValidationError):
            ep_monte_carlo(make_cnot(), 1, SeedSpec(0))


class TestOnStates:
    def test_basis_permutation_on_basis_states(self):
        part = Bipartition(2, 3)
        g = make_basis_permutation(part, [3, 4, 5, 0, 2, 1])
        basis1 = [np.eye(2)[:, [i]] for i in range(2)]
        basis2 = [np.eye(3)[:, [j]] for j in range(3)]
        pairs = [(b1, b2) for b1 in basis1 for b2 in basis2]
        assert abs(ep_on_states(g, pairs)) < 1e-12

    def test_cnot_on_plus_zero(self):
        # oracle: the output is a Bell state, entropy 1/2 by direct reduction
        out = make_cnot().matrix @ kron(ket(1, 1), ket(1, 0))
        assert_allclose(linear_entropy(out, P22), 0.5, atol=1e-12)
        assert_allclose(ep_on_states(make_cnot(), [(ket(1, 1), ket(1, 0))]), 0.5, atol=1e-12)

    def test_product_eigenpair(self):
        assert abs(ep_on_states(make_cnot(), [(ket(1, 0), ket(0, 1))])) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ep_on_states(make_cnot(), [])

    @pytest.mark.parametrize("part", [Bipartition(2, 3), Bipartition(3, 3)])
    def test_matches_per_pair_entropies(self, part):
        # oracle: one validated linear_entropy per output state U (p1 x p2)
        g = haar_gate(part, SeedSpec(33))
        p1, p2 = product_state_block(part, SeedSpec(34), 200)
        pairs = [(a, b.reshape(-1, 1)) for a, b in zip(p1, p2)]
        per_pair = [linear_entropy(g.matrix @ kron(a.reshape(-1, 1), b), part) for a, b in pairs]
        assert abs(ep_on_states(g, pairs) - np.mean(per_pair)) < 1e-12

    @pytest.mark.parametrize("entry", [(ket(1, 0), ket(1, 1), ket(0, 1)), (ket(1, 0),),
                                       ket(1, 0), "ab"], ids=["triple", "single", "array", "str"])
    def test_rejects_entries_that_are_not_pairs(self, entry):
        good = (ket(1, 0), ket(1, 1))
        with pytest.raises(ValidationError, match=r"states\[1\] is not a \(first, second\) pair"):
            ep_on_states(make_cnot(), [good, entry, good])

    def test_rejects_bad_pairs(self):
        g = make_cnot()
        good = (ket(1, 0), ket(1, 1))
        with pytest.raises(DimensionError):
            ep_on_states(g, [good, (ket(1, 0, 0), ket(1, 1))])
        with pytest.raises(DimensionError):
            ep_on_states(g, [good, (ket(1, 0), ket(1, 1, 0))])
        with pytest.raises(DimensionError):
            ep_on_states(g, [(ket(1, 1, 0, 0), ket(1))])
        with pytest.raises(ValidationError):
            ep_on_states(g, [good, (np.array([np.nan, 1.0]), ket(1, 1))])
        with pytest.raises(ValidationError, match="not normalized"):
            ep_on_states(g, [good, (ket(1, 0), np.array([1.0, 1.0]))])

    def test_normalization_tolerance_is_1e_10(self):
        good = (ket(1, 0), ket(1, 1))
        with pytest.raises(ValidationError, match=r"\|norm - 1\| = 1\.000e-08"):
            ep_on_states(make_cnot(), [good, (ket(1, 0), (1 + 1e-8) * ket(1, 1))])
        assert abs(ep_on_states(make_cnot(), [good, (ket(1, 0), (1 + 1e-12) * ket(1, 1))])) < 1e-11
        # the other unit-state entry points hold the same boundary
        for admit in (lambda s: linear_entropy(s * ket(1, 0, 0, 0), P22),
                      lambda s: kraus_from_unitary(make_cnot(), s * ket(1, 0).ravel())):
            with pytest.raises(ValidationError, match="not normalized"):
                admit(1 + 1e-8)
            admit(1 + 1e-12)

    def test_array_of_pairs_is_refused_by_entry(self):
        # an (N, 2, d) array is read as a list of N entries, none of them a tuple or list
        pairs = np.array([(ket(1, 0).ravel(), ket(1, 1).ravel())] * 3)
        with pytest.raises(ValidationError, match=r"states\[0\] is not a \(first, second\) pair"):
            ep_on_states(make_cnot(), pairs)

    def test_iterator_is_read_as_a_list(self):
        pairs = [(ket(1, 0), ket(1, 1)), (ket(1, 1), ket(1, 0))]
        assert ep_on_states(make_cnot(), iter(pairs)) == ep_on_states(make_cnot(), pairs)
        with pytest.raises(ValidationError, match=r"states\[1\] is not a \(first, second\) pair"):
            ep_on_states(make_cnot(), iter([pairs[0], ket(1, 0)]))
        with pytest.raises(ValidationError, match="empty"):
            ep_on_states(make_cnot(), iter([]))


class TestAnalyticFunctions:
    @pytest.mark.parametrize("part,expected", [
        (Bipartition(2, 2), 1 / 5),
        (Bipartition(1, 7), 0.0),
        (Bipartition(2, 3), 2 / 7),
        (Bipartition(3, 3), 2 / 5),
    ])
    def test_haar_mean(self, part, expected):
        assert_allclose(haar_mean(part), expected, atol=1e-15)

    @pytest.mark.parametrize("part,expected", [
        (Bipartition(2, 2), 1 / 3),
        (Bipartition(2, 3), 3 / 8),
        (Bipartition(3, 3), 1 / 2),
        (Bipartition(2, 4), 2 / 5),
        (Bipartition(3, 4), 8 / 15),
    ])
    def test_upper_bound(self, part, expected):
        assert_allclose(upper_bound(part), expected, atol=1e-15)

    def test_upper_bound_symmetric(self):
        assert upper_bound(Bipartition(2, 3)) == upper_bound(Bipartition(3, 2))


class TestInvariances:
    def test_bilocal_invariance(self):
        seed = SeedSpec(33)
        for part in [Bipartition(2, 3), Bipartition(3, 3)]:
            for i in range(5):
                g = haar_gate(part, seed.substream(10 * i))
                u1 = haar_unitary(part.d1, seed.substream(10 * i + 1))
                u2 = haar_unitary(part.d2, seed.substream(10 * i + 2))
                biloc = kron(u1, u2)
                base = ep_closed(g).value
                assert abs(ep_value(biloc @ g.matrix, part) - base) < 1e-10
                assert abs(ep_value(g.matrix @ biloc, part) - base) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_invariance(self, d):
        seed = SeedSpec(34)
        part = Bipartition(d, d)
        swap = make_swap(d).matrix
        for i in range(5):
            g = haar_gate(part, seed.substream(i))
            base = ep_closed(g).value
            assert abs(ep_value(swap @ g.matrix, part) - base) < 1e-10
            assert abs(ep_value(g.matrix @ swap, part) - base) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_symmetric_form(self, d):
        seed = SeedSpec(35)
        part = Bipartition(d, d)
        for i in range(5):
            g = haar_gate(part, seed.substream(i))
            assert abs(swap_symmetric_ep(g) - ep_closed(g).value) < 1e-10

    def test_swap_symmetric_form_needs_square(self):
        with pytest.raises(ValidationError):
            swap_symmetric_ep(make_identity(Bipartition(2, 3)))

    @pytest.mark.parametrize("part", PARTS)
    def test_range_on_haar_samples(self, part):
        seed = SeedSpec(36)
        bound = upper_bound(part)
        for i in range(200):
            v = ep_value(haar_unitary(part.dim, seed.substream(i)), part)
            assert -1e-9 <= v <= bound + 1e-9
