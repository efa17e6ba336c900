"""The exact Haar mean and variance of the entangling power, by Weingarten calculus.

``weingarten.py`` averages ``e`` over the Haar measure exactly, as rationals.
The mean proves the formula behind :func:`entpow.haar_mean`, which criterion
3 only samples; the variance is the paper's other analytic moment of the
uniform distribution, checked against the two-qubit quadrature of
``two_qubit.py``, against its closed form, and against the sampled variance of
the values behind ``dist``.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from entpow import Bipartition, SeedSpec, haar_mean, haar_unitary
from entpow.power import _EvalPlan
from entpow.spectrum import _haar_values

from two_qubit import exact_variance
from weingarten import X0, X1, evaluate, haar_moments, product, variance

SHAPES = [(d1, d2) for d1 in range(1, 7) for d2 in range(d1, 7)]

#: exact Haar variances of e at seven shapes
VARIANCES = {(2, 2): Fraction(1, 2100), (2, 3): Fraction(4, 19845), (3, 3): Fraction(1, 12150),
             (2, 4): Fraction(1, 11088), (3, 4): Fraction(1, 27885), (4, 4): Fraction(27, 1757120),
             (5, 5): Fraction(8, 2218125)}

#: relative gap allowed between the exact 2x2 variance and the quadrature's
QUADRATURE_RTOL = 1e-3

#: the sampled-variance z-test: master seed, Haar gates per shape, and the largest |z|
#: allowed; over 15 shapes a normal z passes 4 in about one run in a thousand
Z_SEED, Z_SAMPLES, Z_LEVEL = 30, 10_000, 4.0


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (1, 3)])
def test_monomials_are_the_closed_form_traces(d1, d2):
    # I0 = n d2 + X0 and I1 = n d1 + X1 at a Haar gate, and a product's value is the product
    n = d1 * d2
    u = haar_unitary(n, SeedSpec(29, d1 * 10 + d2))
    i0, i1 = (float(t[0]) for t in _EvalPlan(u, Bipartition(d1, d2)).traces())
    x0, x1 = evaluate(X0, u, d1, d2), evaluate(X1, u, d1, d2)
    assert x0 == pytest.approx(i0 - n * d2, rel=1e-12)
    assert x1 == pytest.approx(i1 - n * d1, rel=1e-12)
    assert evaluate(product(X0, X1), u, d1, d2) == pytest.approx(x0 * x1, rel=1e-12)


@pytest.mark.parametrize("d1,d2", SHAPES)
def test_mean_is_haar_mean(d1, d2):
    mean, _ = haar_moments(d1, d2)
    assert mean == Fraction((d1 - 1) * (d2 - 1), d1 * d2 + 1)
    assert float(mean) == haar_mean(Bipartition(d1, d2))


@pytest.mark.parametrize("shape", VARIANCES)
def test_variance(shape):
    assert haar_moments(*shape)[1] == VARIANCES[shape]


@pytest.mark.parametrize("d", range(1, 7))
def test_a_trivial_factor_has_zero_variance(d):
    # one factor of dimension 1 leaves every product state a product, so e = 0 exactly
    assert haar_moments(1, d) == haar_moments(d, 1) == (0, 0)


@pytest.mark.parametrize("d1,d2", [(d1, d2) for d1, d2 in SHAPES if d1 < d2])
def test_variance_is_symmetric(d1, d2):
    assert haar_moments(d2, d1)[1] == haar_moments(d1, d2)[1]


def test_two_qubit_variance_matches_the_quadrature():
    exact = float(haar_moments(2, 2)[1])
    assert exact_variance() == pytest.approx(exact, rel=QUADRATURE_RTOL)


@pytest.mark.parametrize("d1,d2", itertools.product(range(1, 9), repeat=2))
def test_closed_form_variance(d1, d2):
    assert variance(d1, d2) == haar_moments(d1, d2)[1]


@pytest.mark.parametrize("d1,d2", [(d1, d2) for d1, d2 in SHAPES if d1 >= 2])
def test_sampled_variance_matches_the_closed_form(d1, d2):
    # the sample variance s2 of N values has standard error sqrt((m4 - s2^2) / N), with m4
    # the sample fourth central moment
    values = _haar_values(Bipartition(d1, d2), Z_SAMPLES, SeedSpec(Z_SEED))
    s2 = values.var(ddof=1)
    m4 = np.mean((values - values.mean()) ** 4)
    z = (s2 - float(variance(d1, d2))) / np.sqrt((m4 - s2 ** 2) / Z_SAMPLES)
    assert abs(z) <= Z_LEVEL


@pytest.mark.parametrize("d2", range(1, 7))
def test_sampled_values_vanish_at_a_trivial_factor(d2):
    values = _haar_values(Bipartition(1, d2), Z_SAMPLES, SeedSpec(Z_SEED))
    assert np.abs(values).max() <= 1e-15
