import cmath
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodet.errors import DomainError, FitRankError
from holodet.polarization import (
    DiagonalSampleSet,
    disc_samples,
    load_diagonal_csv,
    polarize_fit,
    save_diagonal_csv,
    uniqueness_residual,
)


class TestFitBasics:
    def test_modulus_squared(self):
        s = DiagonalSampleSet.from_function(lambda z: abs(z) ** 2, 0, 1.0, 30)
        fit = polarize_fit(s, 2)
        coeffs = fit.coefficients.copy()
        assert abs(coeffs[1, 1] - 1.0) < 1e-10
        coeffs[1, 1] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-10
        assert fit.evaluate(0.3 + 0.2j, 0.1 - 0.4j) == pytest.approx(
            (0.3 + 0.2j) * (0.1 - 0.4j), abs=1e-10)

    def test_cubic_plus_constant(self):
        s = DiagonalSampleSet.from_function(lambda z: z * z * np.conj(z) + 3.0, 0, 1.0, 40)
        fit = polarize_fit(s, 3)
        assert abs(fit.coefficients[2, 1] - 1.0) < 1e-10
        assert abs(fit.coefficients[0, 0] - 3.0) < 1e-10

    def test_insufficient_samples(self):
        s = DiagonalSampleSet(disc_samples(0, 1.0, 3), np.zeros(3), 0, 1.0)
        with pytest.raises(FitRankError, match="insufficient samples"):
            polarize_fit(s, 3)

    def test_clustered_samples(self):
        pts = np.full(40, 0.5 + 0.1j)
        s = DiagonalSampleSet(pts, np.zeros(40), 0, 1.0)
        with pytest.raises(FitRankError, match="dispersion"):
            polarize_fit(s, 2)

    def test_points_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            DiagonalSampleSet(np.array([2.0 + 0j]), np.array([0j]), 0, 1.0)

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_exactness(self, degree, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, (degree + 1, degree + 1)) \
            + 1j * rng.uniform(-1, 1, (degree + 1, degree + 1))

        def phi(z):
            zb = np.conj(z)
            zp = z ** np.arange(degree + 1)
            zbp = zb ** np.arange(degree + 1)
            return complex(zp @ coeffs @ zbp)

        s = DiagonalSampleSet.from_function(phi, 0.2 - 0.1j, 1.3, 2 * (degree + 1) ** 2)
        fit = polarize_fit(s, degree)
        probe = 0.2 - 0.1j + 0.9 * cmath.exp(0.7j)
        assert abs(fit.diagonal(probe) - phi(probe)) < 1e-9 * max(1.0, abs(phi(probe)))

    def test_degree_stability(self):
        f = lambda z: cmath.exp(z).real + 0.3 * abs(z) ** 2
        low = polarize_fit(DiagonalSampleSet.from_function(f, 0, 0.8, 128), 5)
        high = polarize_fit(DiagonalSampleSet.from_function(f, 0, 0.8, 162), 6)
        drift = np.max(np.abs(high.coefficients[:6, :6] - low.coefficients))
        assert drift < 10 * max(low.residual, high.residual) + 1e-12


class TestLogPolarization:
    def oracle(self, degree):
        # Taylor of log(z - w) about (2i, -2i): log(4i + u - v)
        out = np.zeros((degree + 1, degree + 1), complex)
        out[0, 0] = cmath.log(4j)
        for k in range(1, degree + 1):
            base = (-1) ** (k + 1) / (k * (4j) ** k)
            for a in range(0, k + 1):
                b = k - a
                if a <= degree and b <= degree:
                    out[a, b] += base * comb(k, a) * (-1) ** b
        return out

    def test_taylor_coefficients(self):
        s = DiagonalSampleSet.from_function(lambda z: cmath.log(z - np.conj(z)), 2j, 0.5, 120)
        fit = polarize_fit(s, 6)
        err = np.abs(fit.coefficients - self.oracle(6))
        # low total degrees are sharply determined; the full table is limited
        # by the degree-7 Taylor tail of the sampled function (~1e-5)
        deg = np.arange(7)[:, None] + np.arange(7)[None, :]
        assert err[deg <= 3].max() < 1e-7
        scaled_err = err * 0.5 ** deg
        assert scaled_err.max() < 5e-6

    def test_off_diagonal_extension(self):
        s = DiagonalSampleSet.from_function(lambda z: cmath.log(z - np.conj(z)), 2j, 0.5, 120)
        fit = polarize_fit(s, 6)
        for z, w in ((0.2 + 2.1j, 0.15 - 2.05j), (-0.1 + 1.8j, 0.05 - 2.2j)):
            assert abs(fit.evaluate(z, w) - cmath.log(z - w)) < 1e-6


class TestOffDiagonalRecovery:
    def test_entire_function(self):
        G = lambda z, w: cmath.exp(z + 2 * w)
        center, radius = 0.3 + 0j, 0.5
        s = DiagonalSampleSet.from_function(lambda z: G(z, np.conj(z)), center, radius, 200)
        fit = polarize_fit(s, 8)
        for dz in (0.2, -0.15 + 0.1j):
            z = center + dz
            for off in (0.1, -0.2j, 0.15 + 0.1j):
                w = np.conj(z) + off * radius / 2
                assert abs(fit.evaluate(z, w) - G(z, complex(w))) < 1e-6


class TestUniqueness:
    def test_identical(self):
        f = lambda z, w: z * w
        assert uniqueness_residual(f, f, 0, 1.0, 3) < 1e-12

    def test_injected_perturbation(self):
        f1 = lambda z, w: z * w + 0.5
        f2 = lambda z, w: f1(z, w) + 1e-4 * z * z * w
        res = uniqueness_residual(f1, f2, 0, 1.0, 3)
        assert res == pytest.approx(1e-4, rel=1e-6)

    def test_cross_module_genus1(self):
        from holodet.extension import ProductPoint, genus1_extension
        from holodet.torus_spectral import closed_form_log_det

        const = -0.5 * math.log(2 * math.pi)
        center, radius, degree = 1.5j, 0.3, 8
        fit = polarize_fit(
            DiagonalSampleSet.from_function(closed_form_log_det, center, radius,
                                            2 * (degree + 1) ** 2), degree)
        shifted = lambda z, w: genus1_extension(ProductPoint(z, w)) - const
        assert uniqueness_residual(fit.evaluate, shifted, center, radius, degree) < 1e-5


class TestSampling:
    def test_disc_samples_deterministic_and_inside(self):
        a = disc_samples(1 + 2j, 0.7, 100)
        b = disc_samples(1 + 2j, 0.7, 100)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a - (1 + 2j))) <= 0.7 + 1e-12
        d = np.abs(a[:, None] - a[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-3  # well dispersed

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_is_a_domain_error(self, count):
        with pytest.raises(DomainError, match="count"):
            disc_samples(0.5j, 0.2, count)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        s = DiagonalSampleSet.from_function(lambda z: z * np.conj(z) + 1j, 0.5j, 0.4, 25)
        path = tmp_path / "diag.csv"
        save_diagonal_csv(path, s)
        loaded = load_diagonal_csv(path)
        assert np.allclose(loaded.points, s.points)
        assert np.allclose(loaded.values, s.values)
        fit = polarize_fit(loaded, 1)
        assert abs(fit.coefficients[1, 1] - 1.0) < 1e-9

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,u,v\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_diagonal_csv(path)
