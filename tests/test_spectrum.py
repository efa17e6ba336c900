import numpy as np
import pytest

from entpow import Bipartition, Histogram, SeedSpec, ValidationError, haar_mean, monotonicity_score, sample_q, upper_bound
from entpow.sampling import block_sizes
from entpow.power import _SUBSTACK_ENTRIES
from entpow.spectrum import _haar_values


def synthetic(counts, part=Bipartition(2, 2)):
    counts = np.asarray(counts)
    edges = np.linspace(0.0, upper_bound(part), len(counts) + 1)
    return Histogram(part=part, bin_edges=edges, counts=counts,
                     n_samples=int(counts.sum()), seed=SeedSpec(0),
                     empirical_mean=0.0, empirical_max=0.0)


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
    """One Haar draw and one tensordot closed form per gate, block by block."""
    d1, d2, n = part.d1, part.d2, part.dim
    c = 1.0 / (d1 * (d1 + 1)) * (1.0 / (d2 * (d2 + 1)))
    values = []
    for b, count in enumerate(block_sizes(n_samples)):
        rng = seed.substream(b).generator()
        for _ in range(count):
            z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            u = (q * (d / np.abs(d))).reshape(d1, d2, d1, d2)
            t0 = np.tensordot(u, u.conj(), axes=([1, 3], [1, 3]))
            t1 = np.tensordot(u, u.conj(), axes=([0, 3], [0, 3]))
            i0 = d1 * d2 * d2 + float(np.vdot(t0, t0).real)
            i1 = d1 * d1 * d2 + float(np.vdot(t1, t1).real)
            values.append(1.0 - c * (i0 + i1))
    return np.array(values)


class TestBatchedSampling:
    @pytest.mark.parametrize("d1, d2, n_samples", [(2, 2, 64 * 300 + 5), (3, 4, 64 * 30 + 7)])
    def test_values_equal_per_gate_loop(self, d1, d2, n_samples):
        part = Bipartition(d1, d2)
        substack = _SUBSTACK_ENTRIES // part.dim ** 2
        # every block spans a partial sub-stack, so the sub-stack boundaries are exercised
        assert all(count > substack and count % substack for count in block_sizes(n_samples))
        ref = per_gate_values(part, n_samples, SeedSpec(77))
        assert np.array_equal(_haar_values(part, n_samples, SeedSpec(77)), ref)
        h = sample_q(part, n_samples, 50, SeedSpec(77))
        assert h.empirical_mean == float(ref.mean()) and h.empirical_max == float(ref.max())


class TestMonotonicityScore:
    def test_strictly_increasing_counts(self):
        h = synthetic(np.arange(1, 21))
        assert monotonicity_score(h) == pytest.approx(1.0)

    def test_strictly_decreasing_counts(self):
        h = synthetic(np.arange(20, 0, -1))
        assert monotonicity_score(h) == pytest.approx(-1.0)

    def test_trailing_zeros_ignored(self):
        h = synthetic(list(range(1, 16)) + [0, 0, 0, 0, 0])
        assert monotonicity_score(h) == pytest.approx(1.0)

    def test_needs_enough_nonempty_bins(self):
        with pytest.raises(ValidationError):
            monotonicity_score(synthetic([5, 3, 2, 1, 0, 0, 0, 0, 0, 0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            monotonicity_score(synthetic([0] * 20))

    def test_rejects_constant(self):
        with pytest.raises(ValidationError):
            monotonicity_score(synthetic([7] * 20))

    def test_two_qubit_density_is_monotone(self):
        h = sample_q(Bipartition(2, 2), 6000, 30, SeedSpec(76))
        assert monotonicity_score(h) > 0.85

    # Spearman scores as computed by scipy.stats.spearmanr, before the numpy rewrite
    @pytest.mark.parametrize("counts, score", [
        (np.arange(1, 21), 1.0),
        (np.arange(20, 0, -1), -1.0),
        (list(range(1, 16)) + [0] * 5, 1.0),
        ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 0, 0], 0.30095716061664324),
        ([0, 2, 2, 5, 0, 7, 7, 7, 1, 3, 3, 9, 12, 12, 4, 0], 0.6097280093136733),
    ])
    def test_pinned_scores_with_ties(self, counts, score):
        assert abs(monotonicity_score(synthetic(counts)) - score) <= 1e-12

    @pytest.mark.parametrize("n, bins, seed, score", [
        (6000, 30, 76, 0.9932126155286023),
        (20000, 40, 1009, 0.9977081834824892),
    ])
    def test_pinned_sampled_scores(self, n, bins, seed, score):
        h = sample_q(Bipartition(2, 2), n, bins, SeedSpec(seed))
        assert abs(monotonicity_score(h) - score) <= 1e-12
