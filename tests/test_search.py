import itertools
import math

import numpy as np
import pytest

import entpow.power
import entpow.search
from entpow import (Bipartition, ResourceLimitError, SeedSpec,
                    ValidationError, ep_closed, ep_value, exhaustive_permutation_max,
                    make_additive_permutation, make_basis_permutation, make_cnot,
                    maximize_ep, upper_bound)
from entpow.power import _gradients, _i0_i1, ep_values, substack_size
from entpow.sampling import _haar_unitary_from
from entpow.search import ASCENT_TOLERANCE, MIN_STEP_EXPONENT
from entpow.tensorops import permutation_matrix

P22 = Bipartition(2, 2)


def quick_run(part, seed=7, restarts=4, iters=800):
    return maximize_ep(part, SeedSpec(seed), restarts, iters)


class TestMaximizeEp:
    def test_deterministic(self):
        a = quick_run(P22)
        b = quick_run(P22)
        assert a.best_value == b.best_value
        assert a.trace == b.trace
        assert np.array_equal(a.best_gate.matrix, b.best_gate.matrix)

    def test_trace_monotone(self):
        res = quick_run(P22)
        values = [v for _, v in res.trace]
        assert all(b > a for a, b in zip(values, values[1:]))
        iters = [i for i, _ in res.trace]
        assert all(b > a for a, b in zip(iters, iters[1:]))

    def test_best_gate_consistent_with_value(self):
        res = quick_run(P22)
        assert abs(ep_closed(res.best_gate).value - res.best_value) < 1e-10
        # the gate is the best restart's own matrix, so its value is the best value exactly
        assert ep_value(res.best_gate.matrix, P22) == res.best_value

    def test_respects_bound(self):
        for part in [P22, Bipartition(2, 3)]:
            res = quick_run(part)
            assert res.best_value <= res.bound + 1e-9
            assert res.bound == upper_bound(part)
            assert abs(res.gap_to_bound - (res.bound - res.best_value)) < 1e-15

    def test_more_restarts_never_lower(self):
        small = quick_run(P22, restarts=3, iters=400)
        big = quick_run(P22, restarts=6, iters=400)
        assert big.best_value >= small.best_value

    def test_two_qubit_optimum(self):
        res = quick_run(P22, restarts=6, iters=1500)
        assert abs(res.best_value - 2 / 9) < 1e-3

    def test_square_case_never_beats_known_optimum(self):
        part = Bipartition(3, 3)
        res = quick_run(part, restarts=3, iters=500)
        analytic = ep_closed(make_additive_permutation(3)).value
        assert res.best_value <= analytic + 1e-9

    def test_config_validation(self):
        for knobs in (dict(restarts=0), dict(max_iters=0)):
            with pytest.raises(ValidationError, match="restarts and max_iters must be positive"):
                maximize_ep(P22, SeedSpec(0), **knobs)

    def test_restart_reduction_keeps_the_first_maximum(self, monkeypatch):
        # preset starts: identity (0) and two CNOT-class permutations (2/9, a tie); the
        # gradient's Omega is exactly 0 at all three, so each restart stops at its first step
        mats = [np.eye(4), make_cnot().matrix, np.eye(4)[[0, 3, 2, 1]]]
        preset = iter(mats)
        seen = []

        def fake_draw(rng, n):
            seen.append((rng.random(), n))
            return np.array(next(preset), dtype=complex)

        monkeypatch.setattr(entpow.search, "_haar_unitary_from", fake_draw)
        res = maximize_ep(P22, SeedSpec(0), restarts=3, max_iters=9)
        # restart r starts from seed substream r
        assert seen == [(SeedSpec(0).substream(r).generator().random(), 4) for r in range(3)]
        cnot = ep_value(mats[1], P22)
        assert ep_value(mats[2], P22) == cnot
        assert res.best_value == cnot
        assert np.array_equal(res.best_gate.matrix, mats[1])
        # each restart counts its start and one failed step; local iterations are offset
        # by the iterations of the restarts before
        assert res.trace == [(0, 0.0), (2, cnot)]
        assert res.iterations_used == 3 * 2

    def test_every_candidate_is_unitary(self, monkeypatch):
        # accepted iterates are window candidates, so checking every candidate covers them
        stacks = record_stacks(monkeypatch)
        part = Bipartition(2, 3)
        res = quick_run(part, restarts=2, iters=300)
        # the starts, then one stacked window of 3 candidates per running restart per
        # iteration; each start counts as iteration 0
        assert stacks[0].shape == (2, 6, 6)
        assert sum(len(st) for st in stacks[1:]) == 3 * (res.iterations_used - 2)
        assert all(len(st) % 3 == 0 for st in stacks[1:])
        eye = np.eye(part.dim)
        for st in stacks:
            assert np.abs(st.conj().transpose(0, 2, 1) @ st - eye).max() <= 1e-10
        assert abs(res.best_value - 1 / 3) < 1e-6

    def test_failed_window_keeps_the_matrix_and_lowers_the_steps(self, monkeypatch):
        # at 2x2 from seed 18, the restart accepts steps 2^1, 2^2 and 2^3; its fourth
        # window, 2^4, 2^3 and 2^2, improves nothing, so the fifth is 2^1, 2^0 and 2^-1
        assert sequential_maximize(P22, SeedSpec(18), 1, 3)[4] == [1, 2, 3]
        before = maximize_ep(P22, SeedSpec(18), restarts=1, max_iters=3)
        after = maximize_ep(P22, SeedSpec(18), restarts=1, max_iters=4)
        assert fingerprint(after)[:3] == fingerprint(before)[:3]
        assert after.iterations_used == before.iterations_used + 1
        stacks = record_stacks(monkeypatch)
        maximize_ep(P22, SeedSpec(18), restarts=1, max_iters=5)
        u = before.best_gate.matrix
        gu = _gradients(*_i0_i1(u, P22)[2], P22)[0] @ u.conj().T
        w, v = np.linalg.eigh(-1j * (gu - gu.conj().T))
        for window, exponents in [(stacks[4], (4, 3, 2)), (stacks[5], (1, 0, -1))]:
            # exp(2^e Omega) u, one step at a time
            expected = [(v * np.exp(1j * 2.0 ** e * w)) @ v.conj().T @ u for e in exponents]
            assert np.abs(window - expected).max() <= 1e-10

    def test_iteration_cap(self):
        res = quick_run(Bipartition(3, 3), restarts=2, iters=3)
        assert res.iterations_used == 2 * (3 + 1)
        assert all(it <= 7 for it, _ in res.trace)


def record_stacks(monkeypatch):
    """Patch the search's closed-form kernel to record a copy of every stack it evaluates."""
    stacks = []
    real_i0_i1 = entpow.search._i0_i1

    def recording(stack, part):
        stacks.append(stack.copy())
        return real_i0_i1(stack, part)

    monkeypatch.setattr(entpow.search, "_i0_i1", recording)
    return stacks


def sequential_maximize(part, seed, restarts, max_iters):
    """The restarts one after another, one matrix at a time: the definition the lockstep must match.

    Returns ``(best_value, best_matrix, trace, iterations_used, accepted_exponents)``,
    the last listing the exponent of every accepted step in order.
    """
    best_val, best_matrix, trace, offset, accepted_exponents = -math.inf, None, [], 0, []
    for r in range(restarts):
        u = _haar_unitary_from(seed.substream(r).generator(), part.dim)
        val = ep_value(u, part)
        local, c = [(0, val)], 0
        for steps in range(1, max_iters + 1):
            gu = _gradients(*_i0_i1(u, part)[2], part)[0] @ u.conj().T
            omega = gu - gu.conj().T
            w, v = np.linalg.eigh(-1j * omega)
            exponents = [c + 1, c, c - 1]
            etas = 2.0 ** np.array(exponents)
            rotations = v * np.exp(1j * np.multiply.outer(etas, w))[:, None, :]
            candidates = rotations @ (v.conj().T @ u)
            values = ep_values(candidates, part)
            k = int(np.argmax(values))
            gain = values[k] - val
            if gain > 0:
                u, val, c = candidates[k], float(values[k]), exponents[k]
                local.append((steps, val))
                accepted_exponents.append(c)
                if gain <= ASCENT_TOLERANCE:
                    break
            else:
                c -= 3
                if not omega.any():
                    break
            if c - 1 < MIN_STEP_EXPONENT:
                break
        for it, value in local:
            if value > best_val:
                best_val, best_matrix = value, u
                trace.append((offset + it, value))
        offset += steps + 1
    return best_val, best_matrix, trace, offset, accepted_exponents


def fingerprint(res):
    return repr(res.best_value), res.best_gate.matrix.tobytes(), res.trace, res.iterations_used


#: (d1, d2, restarts, max_iters): every shape with d1, d2 <= 3, the three benchmark
#: configurations, a single restart, and two iteration caps
LOCKSTEP_CASES = ([(d1, d2, 3, 300) for d1 in (1, 2, 3) for d2 in (1, 2, 3)]
                  + [(2, 2, 4, 2000), (2, 3, 6, 2500), (2, 4, 6, 6000)]
                  + [(2, 4, 1, 500), (3, 3, 3, 3), (2, 3, 4, 12)])


def record_groups(monkeypatch):
    """Patch the lockstep ascent to record the size of every group it is handed."""
    sizes = []
    real = entpow.search._lockstep_ascent

    def recording(part, starts, max_iters):
        sizes.append(len(starts))
        return real(part, starts, max_iters)

    monkeypatch.setattr(entpow.search, "_lockstep_ascent", recording)
    return sizes


class TestLockstep:
    @pytest.mark.parametrize("case", LOCKSTEP_CASES, ids=lambda c: "{}x{}-r{}-i{}".format(*c))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_sequential_restarts_bit_for_bit(self, case, seed):
        d1, d2, restarts, iters = case
        part = Bipartition(d1, d2)
        best, matrix, trace, used, _ = sequential_maximize(part, SeedSpec(seed), restarts, iters)
        res = maximize_ep(part, SeedSpec(seed), restarts, iters)
        assert fingerprint(res) == (repr(best), matrix.tobytes(), trace, used)

    def test_steps_grow_past_two_to_the_fourth(self):
        # criterion 7's 3x4 run: the window has no upper cap, unlike the ladder's 2^4
        part, seed = Bipartition(3, 4), SeedSpec(1007)
        best, matrix, trace, used, exponents = sequential_maximize(part, seed, 6, 30000)
        res = maximize_ep(part, seed, 6, 30000)
        assert fingerprint(res) == (repr(best), matrix.tobytes(), trace, used)
        assert max(exponents) > 4

    @pytest.mark.parametrize("part", [P22, Bipartition(2, 4), Bipartition(3, 3)], ids=str)
    def test_groups_of_one_restart_change_nothing(self, part, monkeypatch):
        together = maximize_ep(part, SeedSpec(5), 5, 400)
        monkeypatch.setattr(entpow.power, "_SUBSTACK_ENTRIES", 1)
        sizes = record_groups(monkeypatch)
        assert fingerprint(maximize_ep(part, SeedSpec(5), 5, 400)) == fingerprint(together)
        assert sizes == [1] * 5

    def test_group_size_bounds_the_ladder_stack(self, monkeypatch):
        sizes = record_groups(monkeypatch)
        # 2x4: every benchmark configuration runs as one group; from d1 d2 = 65 on, one
        # restart per group
        maximize_ep(Bipartition(2, 4), SeedSpec(1), 16, 2)
        maximize_ep(Bipartition(5, 13), SeedSpec(1), 2, 1)
        assert sizes == [16, 1, 1]

    def test_gradients_only_at_starts_and_accepted_steps(self, monkeypatch):
        # a restart keeps its gradient through a failed window, so per group the gradient
        # rows are one per start plus one per accepted step: the entries of the local traces
        rows, entries = [], []
        real_gradients, real_ascent = entpow.search._gradients, entpow.search._lockstep_ascent

        def counting(a0, *stacks):
            rows[-1] += len(a0)
            return real_gradients(a0, *stacks)

        def per_group(part, starts, max_iters):
            rows.append(0)
            result = real_ascent(part, starts, max_iters)
            entries.append(sum(map(len, result[1])))
            return result

        monkeypatch.setattr(entpow.search, "_gradients", counting)
        monkeypatch.setattr(entpow.search, "_lockstep_ascent", per_group)
        monkeypatch.setattr(entpow.power, "_SUBSTACK_ENTRIES", 2 * 16)   # 2x2: two per group
        res = maximize_ep(P22, SeedSpec(18), restarts=5, max_iters=300)
        assert rows == entries and len(rows) == 3
        assert sum(entries) < res.iterations_used   # some window improved nothing


SHAPES_UP_TO_8 = [Bipartition(d1, d2) for d1 in range(1, 9) for d2 in range(1, 9) if d1 * d2 <= 8]
SHAPES_UP_TO_10 = [Bipartition(d1, d2) for d1 in range(1, 11) for d2 in range(1, 11)
                   if d1 * d2 <= 10]


def stacked_values(tables, part):
    """ep_values over a long list of tables, one sub-stack at a time to bound memory."""
    step = substack_size(part.dim)
    return np.concatenate([ep_values(permutation_matrix(tables[i:i + step]), part)
                           for i in range(0, len(tables), step)])


def full_scan(part):
    """Lexicographic scan over every table: the definition the reduced search must match."""
    n = part.dim
    tables = list(itertools.permutations(range(n)))
    if n < 8:
        values = [ep_value(permutation_matrix(t), part) for t in tables]
    else:
        values = stacked_values(tables, part)
    best, best_table = -math.inf, None
    for table, val in zip(tables, values):
        if val > best + 1e-12:
            best, best_table = float(val), table
    return best, best_table


def least_relabeling(table, part):
    """Relabel the outputs' a and b labels in order of first occurrence."""
    a_new, b_new = {}, {}
    out = []
    for image in table:
        a, b = divmod(image, part.d2)
        out.append(a_new.setdefault(a, len(a_new)) * part.d2 + b_new.setdefault(b, len(b_new)))
    return tuple(out)


class TestExhaustivePermutations:
    def test_two_qubits(self):
        best, table = exhaustive_permutation_max(P22)
        assert abs(best - 2 / 9) < 1e-10
        # CNOT is itself a basis permutation, so the maximum is attained there
        assert abs(ep_closed(make_basis_permutation(P22, table)).value - best) < 1e-12
        assert table == (0, 1, 3, 2)  # lexicographically smallest argmax = CNOT

    def test_two_by_three_stays_below_bound(self):
        best, table = exhaustive_permutation_max(Bipartition(2, 3))
        assert best < 3 / 8 - 1e-9
        assert abs(best - 1 / 3) < 1e-10
        gate = make_basis_permutation(Bipartition(2, 3), table)
        assert abs(ep_closed(gate).value - best) < 1e-12

    def test_three_by_three_reaches_bound(self):
        part = Bipartition(3, 3)
        result = exhaustive_permutation_max(part)
        assert result == (0.5, (0, 4, 8, 5, 6, 1, 7, 2, 3))
        assert abs(result[0] - upper_bound(part)) < 1e-12
        assert abs(ep_closed(make_basis_permutation(part, result[1])).value - 0.5) < 1e-12

    @pytest.mark.parametrize("part", [Bipartition(2, 5), Bipartition(5, 2)], ids=str)
    def test_two_by_five_stays_below_bound(self, part):
        best, table = exhaustive_permutation_max(part)
        assert abs(best - 37 / 90) < 1e-12
        assert best < upper_bound(part) - 1e-9
        assert abs(ep_closed(make_basis_permutation(part, table)).value - best) < 1e-12

    def test_trivial_factor(self):
        best, table = exhaustive_permutation_max(Bipartition(1, 3))
        assert best == pytest.approx(0.0, abs=1e-12)
        assert table == (0, 1, 2)

    def test_cap(self):
        assert entpow.search.PERMUTATION_DIM_CAP == 10
        with pytest.raises(ResourceLimitError):
            exhaustive_permutation_max(Bipartition(3, 4))

    @pytest.mark.parametrize("part", SHAPES_UP_TO_8, ids=str)
    def test_stacked_search_matches_per_table_loop(self, part):
        # 2x3 spans several sub-stacks of 113 tables, so ties across sub-stack boundaries count
        result = exhaustive_permutation_max(part)
        assert repr(result) == repr(full_scan(part))
        assert type(result[0]) is float and all(type(k) is int for k in result[1])

    def test_never_exceeds_bound(self):
        best, _ = exhaustive_permutation_max(Bipartition(2, 4))
        assert best <= upper_bound(Bipartition(2, 4)) + 1e-9


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("part", SHAPES_UP_TO_10, ids=str)
    def test_one_sorted_permutation_per_orbit(self, part):
        reps = entpow.search._orbit_representatives(part)
        n = part.dim
        orbit = math.factorial(part.d1) * math.factorial(part.d2)
        assert reps.shape == (math.factorial(n) // orbit, n)
        assert np.array_equal(np.sort(reps, axis=1), np.broadcast_to(np.arange(n), reps.shape))
        rows = list(map(tuple, reps.tolist()))
        assert rows == sorted(set(rows))  # strictly increasing in lexicographic order

    @pytest.mark.parametrize("part", [P22, Bipartition(2, 3)], ids=str)
    def test_each_table_relabels_to_exactly_one(self, part):
        reps = {tuple(r) for r in entpow.search._orbit_representatives(part).tolist()}
        hits = dict.fromkeys(reps, 0)
        for table in itertools.permutations(range(part.dim)):
            found = set()
            for sigma in itertools.permutations(range(part.d1)):
                for tau in itertools.permutations(range(part.d2)):
                    relabeled = tuple(sigma[k // part.d2] * part.d2 + tau[k % part.d2]
                                      for k in table)
                    if relabeled in reps:
                        found.add(relabeled)
                        hits[relabeled] += 1
            assert len(found) == 1
        orbit = math.factorial(part.d1) * math.factorial(part.d2)
        assert set(hits.values()) == {orbit}

    def test_orbit_shares_value_bit_for_bit(self):
        part = Bipartition(2, 4)
        reps = entpow.search._orbit_representatives(part)
        rep_value = dict(zip(map(tuple, reps.tolist()), stacked_values(reps, part)))
        tables = list(itertools.permutations(range(part.dim)))
        values = stacked_values(tables, part)
        assert len(values) == 40320
        for table, val in zip(tables, values):
            assert val == rep_value[least_relabeling(table, part)]


def test_ep_value_agrees_with_report():
    g = make_cnot()
    assert ep_value(g.matrix, g.part) == ep_closed(g).value
