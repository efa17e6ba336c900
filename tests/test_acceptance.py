"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; the statistical checks use fixed seeds and are deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from entpow import (Bipartition, SeedSpec, ep_closed, ep_dense_oracle,
                    ep_monte_carlo, ep_value, exhaustive_permutation_max, haar_gate,
                    haar_mean, haar_state, haar_unitary, kraus_from_unitary, kron,
                    make_additive_permutation, make_cnot, make_controlled_family,
                    make_identity, make_swap, maximize_ep,
                    partial_ep, sample_q, swap_symmetric_ep, upper_bound)

from entpow.spectrum import _haar_values

from two_qubit import KS_CRITICAL_001, exact_bin_probabilities, ks_gap

EXACT = 1e-10


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc} ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_exact_gate_values():
    with criterion(1, "exact gate values"):
        for part in [Bipartition(2, 2), Bipartition(2, 3), Bipartition(3, 4)]:
            assert abs(ep_closed(make_identity(part)).value) <= EXACT
        for d in range(2, 6):
            assert abs(ep_closed(make_swap(d)).value) <= EXACT
        assert abs(ep_closed(make_cnot()).value - 2 / 9) <= EXACT
        for d in range(2, 7):
            got = ep_closed(make_controlled_family(d)).value
            assert abs(got - d * (d - 1) / (d + 1) ** 2) <= EXACT
        for d in (3, 5):
            got = ep_closed(make_additive_permutation(d)).value
            assert abs(got - (d - 1) / (d + 1)) <= EXACT


def test_criterion_2_route_equivalence():
    with criterion(2, "closed form = dense oracle = Monte Carlo"):
        parts = [Bipartition(2, 2), Bipartition(2, 3), Bipartition(3, 3), Bipartition(2, 4)]
        seed = SeedSpec(1002)
        stream = 0
        for part in parts:
            for _ in range(50):
                g = haar_gate(part, seed.substream(stream))
                stream += 1
                assert abs(ep_closed(g).value - ep_dense_oracle(g).value) <= EXACT
        for part in parts:
            for k in range(5):
                g = haar_gate(part, seed.substream(stream))
                stream += 1
                mc = ep_monte_carlo(g, 20000, seed.substream(stream))
                stream += 1
                assert abs(mc.value - ep_closed(g).value) <= 4 * mc.mc_stderr


def test_criterion_3_haar_mean():
    with criterion(3, "sampled Haar mean matches (d1-1)(d2-1)/(d1 d2 + 1)"):
        seed = SeedSpec(2003)
        n = 5000
        for i, (part, expected) in enumerate([
            (Bipartition(2, 2), 1 / 5),
            (Bipartition(2, 3), 2 / 7),
            (Bipartition(3, 3), 2 / 5),
        ]):
            base = seed.substream(10_000 * i)
            vals = np.array([
                ep_value(haar_unitary(part.dim, base.substream(j)), part) for j in range(n)
            ])
            assert abs(haar_mean(part) - expected) < 1e-15
            stderr = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - expected) <= 3 * stderr


def test_criterion_4_bound_respect():
    with criterion(4, "1000 Haar samples per bipartition never exceed the bound"):
        seed = SeedSpec(1004)
        stream = 0
        for part in [Bipartition(2, 2), Bipartition(2, 3), Bipartition(3, 3),
                     Bipartition(2, 4), Bipartition(3, 4)]:
            bound = upper_bound(part)
            for _ in range(1000):
                v = ep_value(haar_unitary(part.dim, seed.substream(stream)), part)
                stream += 1
                assert v <= bound + 1e-9


def test_criterion_5_invariance_suite():
    with criterion(5, "bilocal and swap invariance, swap-symmetric identity"):
        seed = SeedSpec(1005)
        stream = 0

        def nxt(part):
            nonlocal stream
            g = haar_gate(part, seed.substream(stream))
            stream += 1
            return g

        def local(d, offset):
            nonlocal stream
            u = haar_unitary(d, seed.substream(stream))
            stream += 1
            return u

        for part in [Bipartition(2, 3), Bipartition(3, 3)]:
            for _ in range(20):
                g = nxt(part)
                base = ep_closed(g).value
                biloc = kron(local(part.d1, 0), local(part.d2, 1))
                assert abs(ep_value(biloc @ g.matrix, part) - base) <= EXACT
                assert abs(ep_value(g.matrix @ biloc, part) - base) <= EXACT
        for d in (2, 3):
            part = Bipartition(d, d)
            swap = make_swap(d).matrix
            for _ in range(20):
                g = nxt(part)
                base = ep_closed(g).value
                assert abs(ep_value(swap @ g.matrix, part) - base) <= EXACT
                assert abs(ep_value(g.matrix @ swap, part) - base) <= EXACT
                assert abs(swap_symmetric_ep(g) - base) <= EXACT


def test_criterion_6_channel_consistency():
    with criterion(6, "fixed-state average recovers the gate value; Kraus completeness"):
        seed = SeedSpec(1006)
        stream = 0
        for part in [Bipartition(2, 2), Bipartition(2, 3)]:
            for _ in range(5):
                g = haar_gate(part, seed.substream(stream))
                stream += 1
                base = seed.substream(stream)
                stream += 1
                vals = np.array([
                    partial_ep(kraus_from_unitary(g, haar_state(part.d2, base.substream(j)).ravel()))
                    for j in range(2000)
                ])
                stderr = vals.std(ddof=1) / np.sqrt(2000)
                assert abs(vals.mean() - ep_closed(g).value) <= 4 * stderr
        for i in range(100):
            part = Bipartition(2, 2) if i % 2 else Bipartition(2, 3)
            g = haar_gate(part, seed.substream(stream))
            stream += 1
            psi2 = haar_state(part.d2, seed.substream(stream)).ravel()
            stream += 1
            fam = kraus_from_unitary(g, psi2)
            total = sum(a.conj().T @ a for a in fam.a_ops)
            assert np.abs(total - np.eye(part.d1)).max() <= EXACT


OPTIMIZER_CASES = [
    # the 2x2 and 2x3 optima sit strictly below the bound; 2x4, 3x3, 3x4 and 4x4 reach it
    (Bipartition(2, 2), 2 / 9, dict(restarts=8, max_iters=2000)),
    (Bipartition(2, 3), 1 / 3, dict(restarts=12, max_iters=2500)),
    (Bipartition(2, 4), 2 / 5, dict(restarts=12, max_iters=6000)),
    (Bipartition(3, 4), 8 / 15, dict(restarts=6, max_iters=30000)),
    (Bipartition(3, 3), 1 / 2, dict(restarts=6, max_iters=4000)),
    (Bipartition(4, 4), 3 / 5, dict(restarts=6, max_iters=4000)),
]


@pytest.mark.parametrize("part,target,knobs", OPTIMIZER_CASES,
                         ids=[f"{p}" for p, _, _ in OPTIMIZER_CASES])
def test_criterion_7_optimizer_targets(part, target, knobs):
    with criterion(7, f"optimizer reaches {target:.6f} at {part}"):
        result = maximize_ep(part, SeedSpec(1007), **knobs)
        assert abs(result.best_value - target) <= 1e-3
        assert result.best_value <= result.bound + 1e-9


def test_criterion_7_two_qubit_ceiling():
    with criterion(7, "2x2 never exceeds 2/9 + 1e-6 (1e5 Haar draws + optimizer)"):
        part = Bipartition(2, 2)
        ceiling = 2 / 9 + 1e-6
        # the ceiling is a theorem, so any 1e5 Haar gates test it; these are drawn in stacks
        assert _haar_values(part, 100_000, SeedSpec(10075)).max() <= ceiling
        result = maximize_ep(part, SeedSpec(1007), restarts=8, max_iters=2000)
        # strict-greater acceptance makes best_value the max over every candidate evaluated
        assert result.best_value <= ceiling


def test_criterion_8_permutation_exhaustion():
    with criterion(8, "basis permutations: 2x3 stays strictly below 3/8; 2x2 reaches 2/9"):
        best23, _ = exhaustive_permutation_max(Bipartition(2, 3))
        assert best23 < 3 / 8 - 1e-9
        best22, _ = exhaustive_permutation_max(Bipartition(2, 2))
        assert abs(best22 - 2 / 9) <= EXACT


def test_criterion_9_density_shape():
    with criterion(9, "density shape: exact fit at 2x2 (KS, level 0.001), vanishing tails at 3x3 and 4x4"):
        h22 = sample_q(Bipartition(2, 2), 20000, 40, SeedSpec(1009))
        edges = h22.bin_edges
        exact = exact_bin_probabilities(edges)
        # the exact density rises strictly up to 2/9, below the bound 1/3, and is 0 above it
        below, above = edges[1:] <= 2 / 9, edges[:-1] >= 2 / 9
        assert np.all(np.diff(exact[below]) > 0) and np.all(exact[above] == 0)
        k = int(below.sum())   # the bin holding 2/9 is denser still over its part below 2/9
        assert exact[k] / (2 / 9 - edges[k]) > exact[k - 1] / (edges[k] - edges[k - 1])
        # Kolmogorov-Smirnov at the bin edges, level 0.001 (conservative on a subset of points)
        assert ks_gap(h22.counts, exact) < KS_CRITICAL_001 / np.sqrt(h22.n_samples)
        for part in [Bipartition(3, 3), Bipartition(4, 4)]:
            h = sample_q(part, 20000, 100, SeedSpec(1010))
            nonzero = np.nonzero(h.counts)[0]
            modal = h.counts.max()
            assert h.counts[nonzero[0]] < modal / 2
            assert h.counts[nonzero[-1]] < modal / 2
