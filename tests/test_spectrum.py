import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entpow.power
import entpow.spectrum
from entpow import Bipartition, SeedSpec, ValidationError, haar_mean, sample_q, upper_bound
from entpow.sampling import _DrawPlan, _haar_unitary_from, block_sizes
from entpow.power import _EvalPlan, ep_values, substack_size
from entpow.spectrum import _haar_values

from test_sampling import per_matrix_draw
from two_qubit import KS_CRITICAL_001, exact_bin_probabilities, exact_mean, ks_gap


class TestSampleQ:
    def test_counts_conserved_and_edges_span(self):
        part = Bipartition(2, 2)
        h = sample_q(part, 2000, 25, SeedSpec(71))
        assert h.counts.sum() == 2000
        assert h.n_samples == 2000
        assert h.bin_edges[0] == 0.0
        assert h.bin_edges[-1] == pytest.approx(upper_bound(part))
        assert np.all(np.diff(h.bin_edges) > 0)

    def test_deterministic(self):
        part = Bipartition(2, 3)
        a = sample_q(part, 1000, 20, SeedSpec(72))
        b = sample_q(part, 1000, 20, SeedSpec(72))
        assert np.array_equal(a.counts, b.counts)
        assert a.empirical_mean == b.empirical_mean

    def test_mean_and_max(self):
        part = Bipartition(2, 2)
        n = 8000
        h = sample_q(part, n, 40, SeedSpec(73))
        # the spread of values is below the bound 1/3, so 3 sigma ~ 0.003
        assert abs(h.empirical_mean - haar_mean(part)) < 0.005
        assert h.empirical_max <= upper_bound(part) + 1e-9

    def test_trivial_factor_all_in_zero_bin(self):
        h = sample_q(Bipartition(1, 2), 300, 10, SeedSpec(74))
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0   # the bound is 0
        assert h.counts[0] == 300
        assert h.counts[1:].sum() == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_q(Bipartition(2, 2), 0, 10, SeedSpec(0))
        with pytest.raises(ValidationError):
            sample_q(Bipartition(2, 2), 10, 1, SeedSpec(0))

    def test_densities_integrate_to_one(self):
        h = sample_q(Bipartition(2, 2), 1000, 15, SeedSpec(75))
        widths = np.diff(h.bin_edges)
        assert np.isclose((h.densities * widths).sum(), 1.0)


def per_gate_values(part, n_samples, seed):
    """One Haar draw and one tensordot closed form per gate, block by block; ``T0`` on the smaller side."""
    d1, d2, n = part.d1, part.d2, part.dim
    side = [1, 3] if d1 <= d2 else [0, 2]
    c = 1.0 / (d1 * (d1 + 1)) * (1.0 / (d2 * (d2 + 1)))
    values = []
    for b, count in enumerate(block_sizes(n_samples)):
        rng = seed.substream(b).generator()
        for _ in range(count):
            u = per_matrix_draw(rng, n).reshape(d1, d2, d1, d2)
            t0 = np.tensordot(u, u.conj(), axes=(side, side))
            t1 = np.tensordot(u, u.conj(), axes=([0, 3], [0, 3]))
            i0 = d1 * d2 * d2 + float(np.vdot(t0, t0).real)
            i1 = d1 * d1 * d2 + float(np.vdot(t1, t1).real)
            values.append(1.0 - c * (i0 + i1))
    return np.array(values)


class TestBatchedSampling:
    # each input's blocks are one gate above and at a multiple of the sub-stack, so the
    # smaller blocks split into the larger ones' part count rather than their own; 5x5
    # splits into three parts; at 4x2, A0 is transposed so that T0 is taken on the smaller
    # side and has d2^4 < n^2 entries per gate; at 1x7 the rearrangements are views of the gates
    @pytest.mark.parametrize("d1, d2, n_samples", [(3, 3, 64 * 202 + 5), (3, 4, 64 * 113 + 7),
                                                   (5, 5, 64 * 52 + 3), (4, 2, 64 * 256 + 5),
                                                   (1, 7, 64 * 334 + 5)])
    def test_values_equal_per_gate_loop(self, d1, d2, n_samples):
        part = Bipartition(d1, d2)
        substack, sizes = substack_size(part.dim), block_sizes(n_samples)
        parts = -(-max(sizes) // substack)
        # every block splits into two parts or more, and blocks of unequal size share one
        # part count, which the smaller ones alone would not take
        assert parts >= 2 and -(-min(sizes) // substack) < parts
        ref = per_gate_values(part, n_samples, SeedSpec(77))
        assert np.array_equal(_haar_values(part, n_samples, SeedSpec(77)), ref)
        h = sample_q(part, n_samples, 50, SeedSpec(77))
        assert h.empirical_mean == float(ref.mean()) and h.empirical_max == float(ref.max())

    def test_one_gate_sub_stacks(self, monkeypatch):
        # with one gate per sub-stack the part count is the largest block's size, so each
        # block of 3 next to blocks of 4 has an empty part, which is skipped
        part, seed, n_samples = Bipartition(2, 3), SeedSpec(81), 64 * 3 + 5
        monkeypatch.setattr(entpow.power, "_SUBSTACK_ENTRIES", part.dim ** 2)
        calls = []
        real = entpow.spectrum.ep_values

        def recording(stack, *args):
            calls.append(len(stack))
            return real(stack, *args)

        monkeypatch.setattr(entpow.spectrum, "ep_values", recording)
        assert np.array_equal(_haar_values(part, n_samples, seed), per_gate_values(part, n_samples, seed))
        assert calls == [1] * n_samples

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 3), (5, 5), (4, 2)])
    def test_a_sub_stack_allocates_under_a_quarter_buffer(self, d1, d2):
        # the draw and the evaluation work through the thread's plans, in its workspace, with
        # A1 and T1 in A0's and T0's rows as in dist; what they allocate besides (the values and
        # traces) stays below a quarter of one of its rows
        part = Bipartition(d1, d2)
        count = substack_size(part.dim)
        workspace = np.empty((4, count * part.dim ** 2), dtype=complex)
        rng = SeedSpec(82).generator()
        draw = _DrawPlan(workspace, count, part.dim)
        evaluation = _EvalPlan(draw.q, part, [workspace[i] for i in (0, 1, 2, 1, 2)])

        def sub_stack():
            return ep_values(_haar_unitary_from([(rng, count)], part.dim, draw), part, evaluation)

        sub_stack()    # caches the index arrays
        tracemalloc.start()
        try:
            sub_stack()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < workspace[3].nbytes / 4

    # 1, 63 and 64 samples give one-gate blocks; 64 * 3 + 5 gives blocks of 3 and 4
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 64 * 3 + 5])
    def test_values_do_not_depend_on_the_cpu_count(self, monkeypatch, n_samples):
        part, seed = Bipartition(2, 3), SeedSpec(78)
        ref = per_gate_values(part, n_samples, seed)
        blocks = len(block_sizes(n_samples))
        real = entpow.spectrum.ep_values
        workers = set()

        def recording(*args):
            workers.add(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(entpow.spectrum, "ep_values", recording)
        histograms = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)    # switch threads often, so a lost block would show
        try:
            for cpus in (1, 2, 3, 65):
                monkeypatch.setattr(entpow.spectrum, "_cpu_count", lambda: cpus)
                workers.clear()
                assert np.array_equal(_haar_values(part, n_samples, seed), ref)
                assert len(workers) <= min(cpus, blocks)
                h = sample_q(part, n_samples, 30, seed)
                histograms.append((h.counts.tolist(), h.empirical_mean, h.empirical_max))
        finally:
            sys.setswitchinterval(interval)
        assert histograms[0][1:] == (float(ref.mean()), float(ref.max()))
        assert all(h == histograms[0] for h in histograms)

    def test_one_plan_per_thread_and_part_size(self, monkeypatch):
        # blocks of 4 and of 3 gates, one part each: two part sizes, planned by every thread
        # once per call, whether or not it takes a block of that size
        part, seed, n_samples = Bipartition(2, 3), SeedSpec(83), 64 * 3 + 5
        ref = per_gate_values(part, n_samples, seed)
        real = entpow.spectrum._DrawPlan
        built = []

        def recording(work, count, n):
            built.append((threading.current_thread(), count))
            return real(work, count, n)

        monkeypatch.setattr(entpow.spectrum, "_DrawPlan", recording)
        for cpus in (1, 2, 3, 65):
            monkeypatch.setattr(entpow.spectrum, "_cpu_count", lambda: cpus)
            built.clear()
            assert np.array_equal(_haar_values(part, n_samples, seed), ref)
            threads = {t for t, _ in built}
            assert len(threads) == min(cpus, len(block_sizes(n_samples)))
            assert len(set(built)) == len(built) == 2 * len(threads)
            assert {count for _, count in built} == {3, 4}

    def test_failed_block_stops_the_threads_and_is_raised(self, monkeypatch):
        # 10 gates per block at 2x2 make one ep_values call per block
        failure = ValidationError("injected")
        calls = itertools.count()
        real = entpow.spectrum.ep_values

        def failing(*args):
            if next(calls) == 20:
                raise failure
            return real(*args)

        monkeypatch.setattr(entpow.spectrum, "ep_values", failing)
        monkeypatch.setattr(entpow.spectrum, "_cpu_count", lambda: 3)
        before = threading.active_count()
        with pytest.raises(ValidationError) as exc:
            sample_q(Bipartition(2, 2), 64 * 10, 10, SeedSpec(79))
        assert exc.value is failure
        assert threading.active_count() == before
        # the 21st call fails; each of the two other threads finishes at most the block it holds
        assert next(calls) <= 23


#: one digest over dist's values at 3x3 and 5x5 and an ascent at 4x4, printed by a child interpreter
DIGEST_SCRIPT = """
import hashlib
from entpow import Bipartition, SeedSpec, maximize_ep
from entpow.spectrum import _haar_values
h = hashlib.sha256()
for d, n_samples in ((3, 2000), (5, 300)):
    h.update(_haar_values(Bipartition(d, d), n_samples, SeedSpec(80)).tobytes())
result = maximize_ep(Bipartition(4, 4), SeedSpec(80), restarts=2, max_iters=40)
h.update(result.best_gate.matrix.tobytes() + repr(result.trace).encode())
print(h.hexdigest())
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    # dist's buffers rest on matmul(out=...) giving the bits of an allocated product
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    children = [subprocess.Popen([sys.executable, "-c", DIGEST_SCRIPT], env=extra, text=True,
                                 stdout=subprocess.PIPE)
                for extra in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env)]
    digests = [child.communicate(timeout=60)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(digests[0].strip()) == 64 and digests[0] == digests[1]


class TestExactTwoQubitReference:
    def test_mean_is_the_haar_mean(self):
        # the quadrature weights are the Haar measure: the mean is the exact 1/5
        assert abs(exact_mean() - haar_mean(Bipartition(2, 2))) < 1e-5

    def test_fit_rejects_a_reference_shifted_by_one_bin(self):
        h = sample_q(Bipartition(2, 2), 20000, 40, SeedSpec(1009))
        exact = exact_bin_probabilities(h.bin_edges)
        # criterion 9 accepts the exact bins at this seed; a one-bin shift must fail the same test
        critical = KS_CRITICAL_001 / np.sqrt(h.n_samples)
        assert ks_gap(h.counts, np.r_[0.0, exact[:-1]]) > critical
        assert ks_gap(h.counts, np.r_[exact[1:], 0.0]) > critical
