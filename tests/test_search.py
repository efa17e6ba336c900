import numpy as np
import pytest

from entpow import (Bipartition, OptimizeConfig, ResourceLimitError, SeedSpec,
                    ep_closed, ep_value, exhaustive_permutation_max,
                    make_additive_permutation, make_basis_permutation, make_cnot,
                    maximize_ep, upper_bound)

P22 = Bipartition(2, 2)


def quick_config(part, seed=7, restarts=4, iters=800):
    return OptimizeConfig(part=part, seed=SeedSpec(seed), restarts=restarts,
                          max_iters=iters, initial_step=0.6, step_decay=0.98)


class TestMaximizeEp:
    def test_deterministic(self):
        cfg = quick_config(P22)
        a = maximize_ep(cfg)
        b = maximize_ep(cfg)
        assert a.best_value == b.best_value
        assert a.trace == b.trace
        assert np.array_equal(a.best_gate.matrix, b.best_gate.matrix)

    def test_thread_count_does_not_change_result(self):
        cfg = quick_config(P22, restarts=3, iters=300)
        a = maximize_ep(cfg, threads=1)
        b = maximize_ep(cfg, threads=4)
        assert a.best_value == b.best_value
        assert a.trace == b.trace

    def test_trace_monotone(self):
        res = maximize_ep(quick_config(P22))
        values = [v for _, v in res.trace]
        assert all(b > a for a, b in zip(values, values[1:]))
        iters = [i for i, _ in res.trace]
        assert all(b > a for a, b in zip(iters, iters[1:]))

    def test_best_gate_consistent_with_value(self):
        res = maximize_ep(quick_config(P22))
        assert abs(ep_closed(res.best_gate).value - res.best_value) < 1e-10
        # the gate is the best restart's own matrix, so its value is the best value exactly
        assert ep_value(res.best_gate.matrix, P22) == res.best_value

    def test_respects_bound(self):
        for part in [P22, Bipartition(2, 3)]:
            res = maximize_ep(quick_config(part))
            assert res.best_value <= res.bound + 1e-9
            assert res.bound == upper_bound(part)
            assert abs(res.gap_to_bound - (res.bound - res.best_value)) < 1e-15

    def test_more_restarts_never_lower(self):
        small = maximize_ep(quick_config(P22, restarts=3, iters=400))
        big = maximize_ep(quick_config(P22, restarts=6, iters=400))
        assert big.best_value >= small.best_value

    def test_two_qubit_optimum(self):
        res = maximize_ep(quick_config(P22, restarts=6, iters=1500))
        assert abs(res.best_value - 2 / 9) < 1e-3

    def test_square_case_never_beats_known_optimum(self):
        part = Bipartition(3, 3)
        res = maximize_ep(quick_config(part, restarts=3, iters=500))
        analytic = ep_closed(make_additive_permutation(3)).value
        assert res.best_value <= analytic + 1e-9

    def test_config_validation(self):
        with pytest.raises(Exception):
            OptimizeConfig(part=P22, seed=SeedSpec(0), restarts=0)
        with pytest.raises(Exception):
            OptimizeConfig(part=P22, seed=SeedSpec(0), step_decay=1.5)


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

    def test_trivial_factor(self):
        best, table = exhaustive_permutation_max(Bipartition(1, 3))
        assert best == pytest.approx(0.0, abs=1e-12)
        assert table == (0, 1, 2)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exhaustive_permutation_max(Bipartition(3, 3))

    def test_never_exceeds_bound(self):
        best, _ = exhaustive_permutation_max(Bipartition(2, 4))
        assert best <= upper_bound(Bipartition(2, 4)) + 1e-9


def test_ep_value_agrees_with_report():
    g = make_cnot()
    assert ep_value(g.matrix, g.part) == ep_closed(g).value
