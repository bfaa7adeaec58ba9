"""Tests for the spectral basis (eta, lambda, a), the kernel, and the tuning rule."""
import itertools
import math

import mpmath
import numpy as np
import pytest
from test_basis import a_by_quadrature

from powergain import basis, spectrum

SQRT2 = math.sqrt(2.0)


def default_config(**kw):
    kw.setdefault("c", SQRT2)
    return spectrum.TuningConfig(**kw)


class TestTuningConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.cv == 1.96 and cfg.alpha == 0.05
        assert cfg.sigmaT2 == 1.0 and cfg.C == 2.0 and cfg.D == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            spectrum.TuningConfig(c=0.5)
        with pytest.raises(ValueError):
            default_config(cv=0.0)
        with pytest.raises(ValueError):
            default_config(alpha=1.0)
        with pytest.raises(ValueError):
            default_config(sigmaT2=-1.0)
        with pytest.raises(ValueError):
            default_config(C=0.0)
        with pytest.raises(ValueError):
            default_config(n_effective=1)
        for field in ("c", "cv", "sigmaT2", "C", "D"):
            with pytest.raises(ValueError):
                default_config(**{field: math.nan})


class TestSingularValues:
    """eta and lambda as build_basis stores them."""

    def test_frozen_values(self):
        b = spectrum.build_basis(default_config(), 2)
        np.testing.assert_allclose(b.eta[1], 0.86602540378443865, rtol=1e-14)
        np.testing.assert_allclose(b.lam[1], 0.81649658092772603, rtol=1e-14)
        np.testing.assert_allclose(b.eta[2], 0.75, rtol=1e-14)
        np.testing.assert_allclose(b.lam[2], 2.0 / 3.0, rtol=1e-14)

    def test_degree_zero_is_one(self):
        b = spectrum.build_basis(default_config(), 5)
        assert (b.eta[0], b.lam[0]) == (1.0, 1.0)

    def test_product_does_not_depend_on_c(self):
        # eta_j * lambda_j collapses to (sigma_T^2 / (1 + sigma_T^2))^(j/2),
        # which is what lets one reconstruction serve every counterfactual.
        rng = np.random.default_rng(42)
        j = np.arange(30)
        for _ in range(30):
            c = float(rng.uniform(1.0, 3.0))
            s2 = float(rng.uniform(0.5, 2.0))
            b = spectrum.build_basis(default_config(c=c, sigmaT2=s2), 29)
            np.testing.assert_allclose(b.eta * b.lam, (s2 / (1 + s2)) ** (j / 2),
                                       rtol=1e-12)

    def test_geometric_decay(self):
        b = spectrum.build_basis(default_config(), 19)
        for seq in (b.eta, b.lam):
            ratios = seq[1:] / seq[:-1]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


class TestAcoefficient:
    """The contrast coefficients a as build_basis stores them."""

    def test_frozen_values(self):
        b = spectrum.build_basis(default_config(), 2)
        np.testing.assert_allclose(b.a[0], 1.1481414177487337, rtol=1e-12)
        np.testing.assert_allclose(b.a[2], 2.462676060940888, rtol=1e-12)

    def test_odd_degrees_zero(self):
        b = spectrum.build_basis(default_config(), 20)
        assert (b.a[1::2] == 0.0).all()

    def test_all_zero_when_c_is_one(self):
        for J in (11, basis.J_MAX):
            assert (spectrum.build_basis(default_config(c=1.0), J).a == 0.0).all()

    def test_matches_direct_integrals(self):
        # Rebuild a_j from the definition, by adaptive quadrature of the
        # explicit polynomials, up to the highest supported degree.
        for c2, s2, cv in itertools.product((1.5, 4.0, 9.0), (0.5, 2.0), (1.645, 2.576)):
            cfg = default_config(c=math.sqrt(c2), sigmaT2=s2, cv=cv)
            np.testing.assert_allclose(
                spectrum.build_basis(cfg, basis.J_MAX).a[::2],
                a_by_quadrature(cfg, basis.J_MAX),
                rtol=1e-9, atol=1e-12, err_msg=f"c2={c2}, s2={s2}, cv={cv}")

    def test_high_degree_frozen(self):
        # Frozen from a 60-digit mpmath evaluation of the definition at the
        # double-precision c = sqrt(8.0), sigma_T^2 = 1, cv = 1.96.
        b = spectrum.build_basis(default_config(c=math.sqrt(8.0)), 40)
        np.testing.assert_allclose(b.a[36], -615.77620192503952285, rtol=1e-13)
        np.testing.assert_allclose(b.a[38], -980.81647160942121159, rtol=1e-13)


class TestBuildBasis:
    def test_shapes_and_metadata(self):
        cfg = default_config()
        b = spectrum.build_basis(cfg, 9)
        assert b.J == 9
        assert b.eta.shape == b.lam.shape == b.a.shape == (10,)
        assert b.c == cfg.c and b.cv == cfg.cv and b.sigmaT2 == cfg.sigmaT2

    def test_rejects_bad_cutoff(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            spectrum.build_basis(cfg, -1)
        with pytest.raises(ValueError):
            spectrum.build_basis(cfg, basis.J_MAX + 1)


class TestKernelS:
    def test_frozen_value_at_zero(self):
        cfg = default_config()
        b = spectrum.build_basis(cfg, 0)
        np.testing.assert_allclose(spectrum.kernel_S_grid(np.array([0.0]), [b])[0][0],
                                   0.45804215542001378, rtol=1e-12)

    def test_matches_direct_summation(self):
        cfg = default_config()
        b = spectrum.build_basis(cfg, 14)
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 1.5, size=300)
        H = basis.hermite_sequence(t / math.sqrt(b.sigmaT2), b.J)
        direct = np.zeros_like(t)
        for j in range(b.J + 1):
            direct += b.a[j] * H[j]
        direct *= basis.gaussian_pdf(t, b.sigmaT2)
        np.testing.assert_allclose(spectrum.kernel_S_grid(t, [b])[0], direct, rtol=1e-10,
                                   atol=1e-14)

    def test_value_does_not_depend_on_block_width(self):
        b = spectrum.build_basis(default_config(), 17)
        rng = np.random.default_rng(8)
        for width in rng.integers(1, 400, size=12):
            t = rng.normal(0.0, 2.0, size=width)
            whole = spectrum.kernel_S_grid(t, [b])[0]
            assert [spectrum.kernel_S_grid(x, [b])[0] for x in t] == whole.tolist()

    def test_even_function_of_t(self):
        cfg = default_config()
        b = spectrum.build_basis(cfg, 12)
        rng = np.random.default_rng(42)
        t = rng.normal(0.0, 2.0, size=100)
        np.testing.assert_allclose(spectrum.kernel_S_grid(t, [b])[0],
                                   spectrum.kernel_S_grid(-t, [b])[0], rtol=1e-12)

    @pytest.mark.parametrize("J", [12, 40, 64])
    def test_even_and_block_free_bit_for_bit(self, monkeypatch, J):
        b = spectrum.build_basis(default_config(c=2.0), J)
        t = np.random.default_rng(J).normal(0.0, 3.0, size=1000)
        whole = spectrum.kernel_S_grid(t, [b])[0]
        assert spectrum.kernel_S_grid(-t, [b])[0].tolist() == whole.tolist()
        assert [spectrum.kernel_S_grid(x, [b])[0] for x in t[:50]] == whole[:50].tolist()
        for chunk in (1, 7, 333):
            monkeypatch.setattr(spectrum, "_CHUNK", chunk)
            assert spectrum.kernel_S_grid(t, [b])[0].tolist() == whole.tolist()

    def test_within_5e14_of_a_50_digit_reference(self):
        # The basis's own a_j are the coefficients, so this is the error of
        # the kernel's sum alone, relative to max |S| on |t| <= 12.
        t = np.linspace(0.0, 12.0, 25)
        for c2, s2, J in itertools.product((1.5, 2.0, 4.0, 8.0), (0.5, 1.0, 2.0),
                                           (12, 26, 40, 64)):
            b = spectrum.build_basis(default_config(c=math.sqrt(c2), sigmaT2=s2), J)
            with mpmath.workdps(50):
                ref = []
                for x in t.tolist():
                    x = mpmath.mpf(x) / mpmath.sqrt(s2)
                    lower, upper, total = mpmath.mpf(1), x, mpmath.mpf(b.a[0])
                    for j in range(1, J):
                        lower, upper = upper, (x * upper - mpmath.sqrt(j) * lower) / mpmath.sqrt(j + 1)
                        total += mpmath.mpf(b.a[j + 1]) * upper
                    ref.append(float(total * mpmath.npdf(x) / mpmath.sqrt(s2)))
            ref = np.array(ref)
            err = np.max(np.abs(spectrum.kernel_S_grid(t, [b])[0] - ref)) / np.max(np.abs(ref))
            assert err <= 5e-14, f"c2={c2}, s2={s2}, J={J}: {err:.2e}"

    def test_scalar_input_returns_scalar(self):
        cfg = default_config()
        b = spectrum.build_basis(cfg, 5)
        out = spectrum.kernel_S_grid(0.7, [b])[0]
        assert np.ndim(out) == 0


class TestSelectTuning:
    # (n, expected J, expected epsilon) — epsilon frozen from the rule
    # epsilon = C n^(-1/3), J = floor(log(D n^(-1/3)) / log(sqrt(s2/(1+s2)))).
    CASES = [
        (7569, 17, 0.10186316),
        (14171, 17, 0.082647521),
        (385, 14, 0.27492216),
        (36, 12, 0.60570686),
        (145, 13, 0.38069221),
        (559, 14, 0.24278735),
        (50, 12, 0.54288352),
        (500, 14, 0.25198421),
        (1_000_000, 21, 0.02),
    ]

    def test_frozen_pairs(self):
        for n, J_exp, eps_exp in self.CASES:
            cfg = default_config(n_effective=n)
            J, eps = spectrum.select_tuning(cfg)
            assert J == J_exp, f"n={n}"
            np.testing.assert_allclose(eps, eps_exp, rtol=1e-6, err_msg=f"n={n}")

    def test_requires_sample_size(self):
        with pytest.raises(ValueError):
            spectrum.select_tuning(default_config())

    def test_cutoff_clamped_to_valid_range(self):
        # A large D makes the raw rule negative; it must clamp at zero.
        J, _ = spectrum.select_tuning(default_config(n_effective=8, D=50.0))
        assert J == 0
        # A tiny D pushes the rule far past the recursion's safe range.
        J, _ = spectrum.select_tuning(default_config(n_effective=10, D=1e-30))
        assert J == basis.J_MAX

    def test_monotone_in_n(self):
        sizes = [10, 100, 1000, 10_000, 100_000]
        Js = [spectrum.select_tuning(default_config(n_effective=n))[0]
              for n in sizes]
        eps = [spectrum.select_tuning(default_config(n_effective=n))[1]
               for n in sizes]
        assert Js == sorted(Js)
        assert eps == sorted(eps, reverse=True)


@pytest.mark.parametrize("other", [{"J": 12}, {"sigmaT2": 2.0}], ids=["J", "sigmaT2"])
def test_kernel_grid_refuses_bases_that_differ_in(other):
    first = spectrum.build_basis(default_config(), 14)
    second = spectrum.build_basis(default_config(sigmaT2=other.get("sigmaT2", 1.0)),
                                  other.get("J", 14))
    with pytest.raises(ValueError, match="bases of one kernel grid must share J and sigmaT2"):
        spectrum.kernel_S_grid(np.array([0.5, 2.5]), [first, second])
