"""Tests for the Hermite basis and the normal-distribution helpers."""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from powergain import basis, spectrum


def hermite_closed_form(j, x):
    """Independent oracle: explicit polynomial coefficients, no recurrence.

    He_j(x) = sum_l (-1)^l (2l)!/(2^l l!) C(j, 2l) x^(j-2l), divided by
    sqrt(j!) for the normalized family.  Exact in rational arithmetic for
    the degrees used here.
    """
    total = 0.0
    for l in range(j // 2 + 1):
        coef = ((-1) ** l * math.factorial(2 * l) // (2 ** l * math.factorial(l))
                * math.comb(j, 2 * l))
        total += coef * x ** (j - 2 * l)
    return total / math.sqrt(math.factorial(j))


def integral_by_quad(j, half_width, scale):
    """Integral of He_j(x / scale) over [-half_width, half_width] by QUADPACK."""
    value, _ = integrate.quad(lambda x: hermite_closed_form(j, x / scale),
                              -half_width, half_width, epsabs=1e-12)
    return value


def a_by_quadrature(cfg, J):
    """Even-degree a_0, a_2, .., a_J from their definition, by quadrature.

    a_j = int_{-cv}^{cv} He_j(x / sigma_T) dx
          - lambda_j^-1 int_{-cv/c}^{cv/c} He_j(x / s_c) dx,
    with s_c^2 = 1 + sigma_T^2 - c^-2 and lambda_j = (sigma_T / s_c)^j.
    """
    sigma_t = math.sqrt(cfg.sigmaT2)
    s_c = math.sqrt(1.0 + cfg.sigmaT2 - cfg.c ** -2)
    return np.array([integral_by_quad(j, cfg.cv, sigma_t)
                     - integral_by_quad(j, cfg.cv / cfg.c, s_c) / (sigma_t / s_c) ** j
                     for j in range(0, J + 1, 2)])


def hermite(j, x):
    """He_j at the points x, flattened: row j of hermite_sequence."""
    return basis.hermite_sequence(x, j)[j]


class TestHermiteNormalized:
    def test_frozen_values(self):
        np.testing.assert_allclose(hermite(2, 0.0),
                                   -0.707106781186548, rtol=1e-12)
        np.testing.assert_allclose(hermite(3, 0.5),
                                   -0.561341399387812, rtol=1e-12)
        np.testing.assert_allclose(hermite(4, 1.3),
                                   -0.874447425759071, rtol=1e-12)
        np.testing.assert_allclose(hermite(7, -0.4),
                                   0.499956656283799, rtol=1e-12)
        np.testing.assert_allclose(hermite(8, 2.0),
                                   1.240049682184433, rtol=1e-12)

    def test_degree_zero_and_one(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5, 5, size=20)
        np.testing.assert_allclose(hermite(0, x), np.ones(20))
        np.testing.assert_allclose(hermite(1, x), x)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            j = int(rng.integers(0, 13))
            x = float(rng.uniform(-4.0, 4.0))
            np.testing.assert_allclose(
                hermite(j, x), hermite_closed_form(j, x),
                rtol=1e-10, atol=1e-10, err_msg=f"j={j}, x={x}")

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-3, 3, size=11)
        vec = hermite(6, x)
        scal = np.array([hermite(6, xi)[0] for xi in x])
        np.testing.assert_allclose(vec, scal, rtol=1e-14)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)
        with pytest.raises(ValueError):
            hermite(basis.J_MAX + 1, 0.0)


class TestHermiteSequence:
    def test_rows_match_individual_degrees(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-4, 4, size=9)
        table = basis.hermite_sequence(x, 10)
        assert table.shape == (11, 9)
        for j in range(11):
            np.testing.assert_allclose(table[j], hermite(j, x),
                                       rtol=1e-14)

    def test_orthonormality_under_gaussian_weight(self):
        # Gauss-Hermite quadrature computes E[He_j(X) He_k(X)] for X ~ N(0,1)
        # exactly for polynomial integrands of this degree.
        nodes, weights = np.polynomial.hermite_e.hermegauss(64)
        weights = weights / weights.sum()
        table = basis.hermite_sequence(nodes, 20)
        gram = (table * weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(21), atol=1e-8)

    @pytest.mark.parametrize("jmax", [0, 1, 2, 13, 40, basis.J_MAX])
    def test_even_steps_give_the_even_rows(self, jmax):
        x = np.linspace(-12.0, 12.0, 481)
        steps = basis.hermite_even_steps(jmax)
        assert [n for n, *_ in steps] == list(range(0, jmax - 1, 2))
        lower, upper = np.zeros_like(x), np.ones_like(x)
        rows = [upper]
        for n, shift, back, scale in steps:
            assert (shift, back ** 2, scale ** 2) == pytest.approx(
                (2 * n + 1, n * (n - 1), (n + 1) * (n + 2)), rel=1e-15)
            lower, upper = upper, ((x * x - shift) * upper - back * lower) / scale
            rows.append(upper)
        even = basis.hermite_sequence(x, jmax)[::2]
        assert len(rows) == len(even)
        # Within 64 ulp of each row's largest value.
        scale = np.abs(even).max(axis=1, keepdims=True)
        assert (np.abs(np.array(rows) - even) <= 64 * np.finfo(float).eps * scale).all()


class TestNormalHelpers:
    def test_gaussian_pdf_frozen(self):
        np.testing.assert_allclose(basis.gaussian_pdf(0.0), 0.39894228040143268,
                                   rtol=1e-14)
        np.testing.assert_allclose(basis.gaussian_pdf(0.0, variance=4.0),
                                   0.19947114020071634, rtol=1e-14)
        np.testing.assert_allclose(basis.gaussian_pdf(1.96), 0.05844094433345146,
                                   rtol=1e-14)

    def test_gaussian_pdf_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            basis.gaussian_pdf(0.0, variance=0.0)
        with pytest.raises(ValueError):
            basis.gaussian_pdf(0.0, variance=-1.0)

    def test_quantile_frozen_and_roundtrip(self):
        np.testing.assert_allclose(basis.normal_quantile(0.975),
                                   1.9599639845400540, rtol=1e-12)
        np.testing.assert_allclose(basis.normal_quantile(0.84),
                                   0.9944578832097530, rtol=1e-12)
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = float(rng.uniform(0.01, 0.99))
            np.testing.assert_allclose(special.ndtr(basis.normal_quantile(p)),
                                       p, rtol=1e-12)

    def test_quantile_matches_ndtri_at_interval_levels(self):
        # Both sides of every two-sided interval level alpha in (1e-6, 0.5).
        # 5 ulp is the largest gap measured on this grid; against a 200-bit
        # reference NormalDist is within 5 ulp and ndtri within 3.
        alpha = np.logspace(-6, math.log10(0.5), 4000)
        for p in np.concatenate([alpha / 2.0, 1.0 - alpha / 2.0]):
            z = basis.normal_quantile(p)
            assert type(z) is float
            ref = special.ndtri(p)
            assert abs(z - ref) <= 5 * np.spacing(abs(ref)), (p, z, ref)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_outside_unit_interval_raises(self, p):
        with pytest.raises(ValueError):
            basis.normal_quantile(p)


class TestNdtr:
    """The NumPy normal CDF that replaced ``scipy.special.ndtr``."""

    # Both of Cody's range edges, |x| = 0.46875 sqrt 2 and 4 sqrt 2, lie inside.
    GRID = np.linspace(-38.0, 9.0, 4701)

    def test_within_2e16_of_a_50_digit_reference(self):
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.ncdf(x)) for x in self.GRID.tolist()])
        assert np.max(np.abs(basis._ndtr(self.GRID) - ref)) <= 2e-16

    def test_within_2e16_of_scipy(self):
        assert np.max(np.abs(basis._ndtr(self.GRID) - special.ndtr(self.GRID))) <= 2e-16

    def test_relative_accuracy_in_the_lower_tail(self):
        x = np.linspace(-37.0, -6.0, 311)
        assert np.all(np.abs(basis._ndtr(x) / special.ndtr(x) - 1.0) <= 1e-12)

    def test_shapes_and_limits(self):
        assert basis._ndtr(0.0).shape == ()
        assert basis._ndtr(np.zeros((3, 4))).shape == (3, 4)
        assert basis._ndtr(np.empty(0)).shape == (0,)
        x = np.array([-np.inf, -1e300, -0.0, 0.0, 1e300, np.inf])
        assert basis._ndtr(x).tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
        assert np.isnan(basis._ndtr(np.nan))

    def test_blocks_do_not_change_values(self, monkeypatch):
        x = np.random.default_rng(3).normal(0.0, 4.0, 5000)
        whole = basis._ndtr(x)
        monkeypatch.setattr(basis, "_NDTR_BLOCK", 333)
        assert np.array_equal(basis._ndtr(x), whole)

    @pytest.mark.parametrize("inner_share", [0.1, 0.5, 0.9])
    def test_mixed_ranges_bit_for_bit(self, inner_share):
        # Blocks that mix Cody's three ranges, the middle one holding most,
        # half or little of the block, give each element the bits it gets
        # alone.
        rng = np.random.default_rng(11)
        x = np.where(rng.random(600) < inner_share,
                     rng.uniform(-0.66, 0.66, 600), rng.normal(0.0, 4.0, 600))
        x[:4] = [0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0), -np.inf, 40.0]
        alone = np.array([basis._ndtr(v) for v in x.tolist()])
        assert np.array_equal(basis._ndtr(x), alone)
        power, slope = basis.conditional_power(x + 1.96, slope=True)
        for k, v in enumerate(x.tolist()):
            p1, s1 = basis.conditional_power(v + 1.96, slope=True)
            assert power[k] == p1 and slope[k] == s1


class TestConditionalPower:
    def test_frozen_values(self):
        np.testing.assert_allclose(basis.conditional_power(0.0),
                                   0.049995790296440868, rtol=1e-12)
        np.testing.assert_allclose(basis.conditional_power(2.8016),
                                   0.79999501567545755, rtol=1e-12)
        np.testing.assert_allclose(
            basis.conditional_power(math.sqrt(2.0) * 2.8016),
            0.97736090066934457, rtol=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(42)
        h = rng.uniform(-6, 6, size=200)
        p = basis.conditional_power(h)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        np.testing.assert_allclose(p, basis.conditional_power(-h), rtol=1e-13)

    def test_monotone_in_positive_effect(self):
        h = np.linspace(0.0, 6.0, 100)
        p = basis.conditional_power(h)
        assert np.all(np.diff(p) > 0)

    @pytest.mark.parametrize("cv", [0.5, 1.96])
    def test_slope_is_the_derivative(self, cv):
        h = np.linspace(-9.0, 9.0, 1801)
        p, slope = basis.conditional_power(h, cv, slope=True)
        assert np.array_equal(p, basis.conditional_power(h, cv))
        # Each density is within an ulp or two of 0.4 at most.
        expected = basis.gaussian_pdf(cv - h) - basis.gaussian_pdf(cv + h)
        np.testing.assert_allclose(slope, expected, rtol=0.0, atol=2e-16)
        p0, s0 = basis.conditional_power(1.0, cv, slope=True)
        assert (p0, s0) == (p[1000], slope[1000])


class TestIntegrateBasis:
    """Integrals of He_j(x / s) over [-h, h], checked through build_basis's a.

    a_j = L_j - R_j / lambda_j, where L_j is the integral over [-cv, cv] at
    scale sigma_T and R_j the one over [-cv/c, cv/c] at scale s_c.
    """

    def test_frozen_values(self):
        # c = sqrt 2, sigma_T^2 = 1, cv = 1.96: L_j at h = 1.96, s = 1 and
        # R_j at h = 1.96 / sqrt 2, s = sqrt 1.5.
        b = spectrum.build_basis(spectrum.TuningConfig(c=math.sqrt(2.0)), 4)
        np.testing.assert_allclose(b.a[0] + 2.0 * 1.96 / math.sqrt(2.0), 3.92,
                                   rtol=1e-14)
        np.testing.assert_allclose(b.a[2],
                                   0.777598727607555 - -1.123384888888889 / b.lam[2],
                                   rtol=1e-12)
        r4 = integral_by_quad(4, 1.96 / math.sqrt(2.0), math.sqrt(1.5))
        np.testing.assert_allclose(b.a[4] + r4 / b.lam[4], -1.385586083991381,
                                   rtol=1e-12)

    def test_odd_degrees_exactly_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            cfg = spectrum.TuningConfig(c=float(rng.uniform(1.0, 3.0)),
                                        cv=float(rng.uniform(0.5, 3.0)),
                                        sigmaT2=float(rng.uniform(0.5, 2.0)))
            assert (spectrum.build_basis(cfg, 29).a[1::2] == 0.0).all()

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cfg = spectrum.TuningConfig(c=float(rng.uniform(1.05, 3.0)),
                                        cv=float(rng.uniform(0.5, 3.0)),
                                        sigmaT2=float(rng.uniform(0.5, 2.0)))
            J = int(rng.integers(0, 7)) * 2
            np.testing.assert_allclose(
                spectrum.build_basis(cfg, J).a[::2], a_by_quadrature(cfg, J),
                rtol=1e-9, atol=1e-12, err_msg=f"{cfg}, J={J}")
