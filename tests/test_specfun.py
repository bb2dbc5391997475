import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from relqosc import hermite, kummer_terminating


def kummer_term_magnitude_sum(n, b, x):
    """Sum of |term| over the terminating series, for cancellation-aware tolerances."""
    total, term = 1.0, 1.0
    for k in range(n):
        term *= abs((k - n) / ((b + k) * (k + 1.0))) * abs(x)
        total += term
    return total


class TestHermite:
    def test_low_degrees(self):
        assert hermite(0, 0.3) == 1.0
        assert hermite(1, 0.7) == pytest.approx(1.4)
        # H_3 = 8x^3 - 12x
        assert hermite(3, 0.5) == pytest.approx(-5.0)
        # H_4 = 16x^4 - 48x^2 + 12
        assert hermite(4, 0.0) == pytest.approx(12.0)

    def test_scalar_and_array_shapes(self):
        assert np.isscalar(hermite(2, 1.0)) or np.ndim(hermite(2, 1.0)) == 0
        x = np.linspace(-2, 2, 7)
        assert hermite(5, x).shape == x.shape

    @pytest.mark.parametrize("n", [0, 1, 3, 10, 25])
    def test_against_scipy(self, n):
        x = np.random.default_rng(11).uniform(-4.0, 4.0, 64)
        scale = np.maximum(1.0, np.abs(special.eval_hermite(n, x)))
        assert np.max(np.abs(hermite(n, x) - special.eval_hermite(n, x)) / scale) < 1e-12

    @given(n=st.integers(0, 20), x=st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_parity(self, n, x):
        left = hermite(n, -x)
        right = (-1.0) ** n * hermite(n, x)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_orthogonality_gauss_hermite(self):
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        for m in range(5):
            for n in range(5):
                integral = float(np.sum(weights * hermite(m, nodes) * hermite(n, nodes)))
                expected = math.sqrt(math.pi) * 2.0 ** n * math.factorial(n) if m == n else 0.0
                assert integral == pytest.approx(expected, rel=1e-10, abs=1e-8)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)
        with pytest.raises(ValueError):
            hermite(1.5, 0.0)


class TestKummerTerminating:
    def test_zeroth_order_is_one(self):
        assert kummer_terminating(0, 0.7, 123.4) == 1.0

    def test_small_case(self):
        # 1F1(-2; 1; 1) = 1 - 2 + 1/2
        assert kummer_terminating(2, 1.0, 1.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("n,b", [(1, 0.5), (4, 1.0), (7, 2.5), (12, 3.0)])
    def test_against_scipy_hyp1f1(self, n, b):
        x = np.random.default_rng(5).uniform(0.0, 8.0, 32)
        oracle = special.hyp1f1(-n, b, x)
        scale = np.array([kummer_term_magnitude_sum(n, b, xi) for xi in x])
        assert np.max(np.abs(kummer_terminating(n, b, x) - oracle) / scale) < 1e-12

    def test_array_shape(self):
        x = np.linspace(0.1, 4.0, 11)
        assert kummer_terminating(3, 1.5, x).shape == x.shape

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            kummer_terminating(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_terminating(2, -1.0, 1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            kummer_terminating(-3, 1.0, 1.0)


class TestLaguerre:
    """Generalized Laguerre polynomials in their Kummer form, scipy as oracle."""

    @pytest.mark.parametrize("n,alpha,x", [(5, 0.0, 1.0), (8, 1.5, 4.0), (20, 0.5, 30.0)])
    def test_kummer_identity(self, n, alpha, x):
        """binom(n+alpha, n) 1F1(-n; alpha+1; x) = L_n^alpha(x), scipy's Laguerre as oracle.

        The series alternates; the tolerance is scaled by the total term
        magnitude, since the value itself can be orders of magnitude below the
        largest term (n=20, x=30 cancels ~13 digits).
        """
        lhs = special.comb(n + alpha, n) * kummer_terminating(n, alpha + 1.0, x)
        scale = special.comb(n + alpha, n) * kummer_term_magnitude_sum(n, alpha + 1.0, x)
        assert abs(lhs - special.eval_genlaguerre(n, alpha, x)) <= 1e-12 * scale


def test_hermite_recurrence_consistency():
    # H_{n+1} = 2 x H_n - 2 n H_{n-1} should hold on raw evaluations too
    x = np.linspace(-3.0, 3.0, 25)
    for n in range(1, 12):
        lhs = hermite(n + 1, x)
        rhs = 2.0 * x * hermite(n, x) - 2.0 * n * hermite(n - 1, x)
        assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-9)
