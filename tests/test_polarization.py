import cmath
import math
import os
import re
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holodet.polarization as polarization
from holodet.errors import DomainError, FitRankError
from holodet.polarization import (
    DiagonalSampleSet,
    disc_samples,
    load_diagonal_csv,
    polarize_fit,
    uniqueness_residual,
)

SRC = Path(polarization.__file__).parents[1]


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

    def test_layout_is_no_constructor_argument(self):
        # a set given layout=(3, 6) was fitted as disc_samples' ring grid: |z|^2 at these
        # 18 scattered points gave a11 = 0.304 at conditioning 1.0, with no error
        rng = np.random.default_rng(3)
        pts = np.sqrt(rng.uniform(0, 1, 18)) * np.exp(2j * np.pi * rng.uniform(0, 1, 18))
        with pytest.raises(TypeError, match="layout"):
            DiagonalSampleSet(pts, np.abs(pts) ** 2, 0, 1.0, layout=(3, 6))
        s = DiagonalSampleSet(pts, np.abs(pts) ** 2, 0, 1.0)
        fit = polarize_fit(s, 1)
        assert s.layout is None and fit.conditioning > 1.0
        coeffs = fit.coefficients.copy()
        assert abs(coeffs[1, 1] - 1.0) < 1e-12
        coeffs[1, 1] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_clustered_samples(self):
        pts = np.full(40, 0.5 + 0.1j)
        s = DiagonalSampleSet(pts, np.zeros(40), 0, 1.0)
        with pytest.raises(FitRankError, match="dispersion"):
            polarize_fit(s, 2)

    def test_points_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            DiagonalSampleSet(np.array([2.0 + 0j]), np.array([0j]), 0, 1.0)

    def test_non_finite_difference_is_a_domain_error(self):
        with pytest.raises(DomainError, match="finite"):
            uniqueness_residual(lambda z, w: float("nan"), lambda z, w: 0.0, 0, 1.0, 3)

    def test_empty_sample_set_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at least one point"):
            DiagonalSampleSet(np.array([], complex), np.array([], complex), 0, 1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_radius_is_a_domain_error(self, radius):
        with pytest.raises(DomainError, match=f"radius must be finite and positive, got {radius!r}"):
            DiagonalSampleSet(np.array([0j]), np.array([1 + 0j]), 0, radius)

    @pytest.mark.parametrize("center, radius", [(1j, float("nan")), (1j, 0.0), (1j, -2.0),
                                                (complex("nan+1j"), 0.5), (complex("inf"), 0.5)])
    def test_from_function_checks_the_disc_before_calling_f(self, center, radius):
        called = []
        with pytest.raises(DomainError, match="disc (center|radius) must be finite"):
            DiagonalSampleSet.from_function(lambda z: called.append(z) or z, center, radius, 50)
        assert called == []

    def test_non_finite_center_is_a_domain_error(self):
        with pytest.raises(DomainError, match="disc center must be finite, got \\(nan\\+0j\\)"):
            DiagonalSampleSet(np.array([0j]), np.array([1 + 0j]), complex("nan"), 1.0)

    def test_zero_radius_fit_and_residual_are_domain_errors(self):
        f = lambda z, w: z * w
        with pytest.raises(DomainError, match="radius"):
            polarize_fit(DiagonalSampleSet.from_function(lambda z: z * np.conj(z), 1j, 0.0, 50), 4)
        with pytest.raises(DomainError, match="radius"):
            uniqueness_residual(f, f, 1j, 0.0, 4)

    @pytest.mark.parametrize("degree", [2.7, 2.0, -1, "3"])
    def test_degree_must_be_an_integer_at_least_zero(self, degree):
        s = DiagonalSampleSet.from_function(lambda z: z * np.conj(z), 0, 1.0, 50)
        with pytest.raises(DomainError, match=f"got {degree!r}"):
            polarize_fit(s, degree)

    def test_numpy_integer_degree_is_accepted(self):
        s = DiagonalSampleSet.from_function(lambda z: z * np.conj(z), 0, 1.0, 50)
        assert polarize_fit(s, np.int64(2)).degree == 2

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_exactness(self, degree, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, (degree + 1, degree + 1)) \
            + 1j * rng.uniform(-1, 1, (degree + 1, degree + 1))

        def phi(z):
            zp = np.power.outer(z, np.arange(degree + 1))
            zbp = np.power.outer(np.conj(z), np.arange(degree + 1))
            return np.einsum("...a,ab,...b->...", zp, coeffs, zbp)

        s = DiagonalSampleSet.from_function(phi, 0.2 - 0.1j, 1.3, 2 * (degree + 1) ** 2)
        fit = polarize_fit(s, degree)
        probe = 0.2 - 0.1j + 0.9 * cmath.exp(0.7j)
        value = fit.evaluate(probe, probe.conjugate())
        assert abs(value - phi(probe)) < 1e-9 * max(1.0, abs(phi(probe)))

    def test_degree_stability(self):
        f = lambda z: np.exp(z).real + 0.3 * np.abs(z) ** 2
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
        s = DiagonalSampleSet.from_function(lambda z: np.log(z - np.conj(z)), 2j, 0.5, 120)
        fit = polarize_fit(s, 6)
        err = np.abs(fit.coefficients - self.oracle(6))
        # low total degrees are sharply determined; the full table is limited
        # by the degree-7 Taylor tail of the sampled function (~1e-5)
        deg = np.arange(7)[:, None] + np.arange(7)[None, :]
        assert err[deg <= 3].max() < 1e-7
        scaled_err = err * 0.5 ** deg
        assert scaled_err.max() < 5e-6

    def test_off_diagonal_extension(self):
        s = DiagonalSampleSet.from_function(lambda z: np.log(z - np.conj(z)), 2j, 0.5, 120)
        fit = polarize_fit(s, 6)
        for z, w in ((0.2 + 2.1j, 0.15 - 2.05j), (-0.1 + 1.8j, 0.05 - 2.2j)):
            assert abs(fit.evaluate(z, w) - cmath.log(z - w)) < 1e-6


class TestOffDiagonalRecovery:
    def test_entire_function(self):
        G = lambda z, w: np.exp(z + 2 * w)
        center, radius = 0.3 + 0j, 0.5
        s = DiagonalSampleSet.from_function(lambda z: G(z, np.conj(z)), center, radius, 200)
        fit = polarize_fit(s, 8)
        for dz in (0.2, -0.15 + 0.1j):
            z = center + dz
            for off in (0.1, -0.2j, 0.15 + 0.1j):
                w = np.conj(z) + off * radius / 2
                assert abs(fit.evaluate(z, w) - G(z, complex(w))) < 1e-6


class TestBatchedCalls:
    """Every diagonal sample of a disc comes from one call."""

    def test_from_function_calls_diag_once_with_every_point(self):
        calls = []
        s = DiagonalSampleSet.from_function(lambda z: calls.append(z) or z * np.conj(z),
                                            0.5j, 0.4, 162)
        assert len(calls) == 1
        assert np.array_equal(calls[0], s.points) and s.layout == (9, 18)

    def test_uniqueness_residual_calls_each_extension_once(self):
        calls = {"f1": [], "f2": []}

        def f1(z, w):
            calls["f1"].append(z)
            return z * w

        def f2(z, w):
            calls["f2"].append(w)
            return z * w + 1e-3 * (z - 0.5j)

        assert uniqueness_residual(f1, f2, 0.5j, 0.4, 4) == pytest.approx(1e-3 * 0.4)
        assert [len(v) for v in calls.values()] == [1, 1]
        assert calls["f1"][0].shape == calls["f2"][0].shape == (2 * 5 ** 2,)

    def test_evaluate_returns_a_complex_at_a_point_and_an_array_at_arrays(self):
        s = DiagonalSampleSet.from_function(lambda z: np.exp(z + 2 * np.conj(z)), 0.3, 0.5, 200)
        fit = polarize_fit(s, 8)
        z = 0.3 + 0.4 * np.exp(1j * np.linspace(0, 6, 12)).reshape(3, 4)
        w = np.conj(z) + 0.05j
        value = fit.evaluate(complex(z[0, 0]), complex(w[0, 0]))
        assert type(value) is complex
        values = fit.evaluate(z, w)
        assert values.shape == (3, 4)
        # the stacked product keeps the pointwise order: the same bits
        assert values.tolist() == [[fit.evaluate(complex(a), complex(b)) for a, b in zip(r, q)]
                                   for r, q in zip(z, w)]


    @pytest.mark.parametrize("z, w, message", [
        (np.ones(3) * 1j, np.ones(4) * 1j, "one shape, got (3,) and (4,)"),
        (0.3, np.array([0.3, 0.4]), "one shape, got () and (2,)"),
        (complex("nan"), 0j, "finite, got (nan+0j), 0j"),
        (np.array([0.3, 0.4]), np.array([0.1, complex("inf")]), "finite, got (0.4+0j), (inf+0j)"),
        ("a", 1, "z must be a complex number or an ndarray of them, got 'a'"),
    ])
    def test_evaluate_refuses_bad_points_before_any_power(self, z, w, message, monkeypatch):
        fit = polarize_fit(DiagonalSampleSet.from_function(lambda z: z * np.conj(z), 0.3, 0.5, 98), 6)
        monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("powers taken"))
        with pytest.raises(DomainError, match=re.escape(message)):
            fit.evaluate(z, w)


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


def monomial_table(degree, seed):
    rng = np.random.default_rng(seed)
    shape = (degree + 1, degree + 1)
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def scaled_polynomial(table, center, radius):
    powers = np.arange(len(table))

    def phi(z):
        u = (z - center) / radius
        return np.einsum("...a,ab,...b->...", np.power.outer(u, powers), table,
                         np.power.outer(np.conj(u), powers))

    return phi


class TestRingFit:
    @pytest.mark.parametrize("degree", range(15))
    def test_random_tables_come_back(self, degree):
        # the exact Zernike-to-monomial map amplifies the ulp-level rounding
        # of the samples by its row norm (1.3e10 at D = 14), which bounds any
        # fit from double samples; the error scaled by it stays at 1e-16
        center, radius = 0.3 + 1.2j, 0.4
        norm = np.max(np.abs(polarization._to_monomials(degree)).sum(axis=1))
        for seed in range(3):
            table = monomial_table(degree, 100 * degree + seed)
            s = DiagonalSampleSet.from_function(scaled_polynomial(table, center, radius),
                                                center, radius, 2 * (degree + 1) ** 2)
            fit = polarize_fit(s, degree)
            assert fit.conditioning == 1.0
            assert np.max(np.abs(fit.scaled_coefficients - table)) <= 1e-14 * norm

    def test_radial_gram_is_identity(self):
        degree = 20
        _, project, synth, _ = polarization._ring_rule(degree, degree + 1, 2 * degree + 1)
        gram = np.matmul(project, synth)  # per mode m, (D+1) x (D+1)
        for m in range(-degree, degree + 1):
            size = degree + 1 - abs(m)
            block = gram[m + degree]
            assert np.max(np.abs(block[:size, :size] - np.eye(size))) < 1e-12
            assert not block[size:].any()

    def test_ring_and_scattered_paths_agree(self):
        # the same points fitted with and without their layout: the paths
        # weigh the degree > 6 tail of log(z - zbar) differently, which on
        # D(2i, 0.3) is ~(0.3/4)^7
        s = DiagonalSampleSet.from_function(lambda z: np.log(z - np.conj(z)), 2j, 0.3, 98)
        scattered = DiagonalSampleSet(s.points, s.values, s.center, s.radius)
        ring, lsq = polarize_fit(s, 6), polarize_fit(scattered, 6)
        assert ring.conditioning == 1.0 and lsq.conditioning > 1.0
        assert np.max(np.abs(ring.scaled_coefficients - lsq.scaled_coefficients)) < 1e-9

    def test_ring_sets_take_no_least_squares(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        f = lambda z: np.exp(z).real
        for count in (30, 98, 242, 500):
            s = DiagonalSampleSet.from_function(f, 0.5j, 0.2, count)
            rings, per_ring = s.layout
            for degree in range(min(rings - 1, (per_ring - 1) // 2) + 1):
                polarize_fit(s, degree)
        assert calls == []
        polarize_fit(DiagonalSampleSet(s.points, s.values, s.center, s.radius), 3)
        assert calls == [1]

    def test_verify_check_is_thread_independent(self):
        code = ("from holodet.verify import check_polarization_uniqueness as c; "
                "print([repr(r.residual) for r in c()])")
        outs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            outs.append(out.stdout)
        assert outs[0] == outs[1]

    def test_unpinned_fits_take_no_threaded_blas_stall(self):
        # a complex gemv to monomials took about 8 ms per fit at D = 8 under
        # default OpenBLAS threads; the whole fit takes about 0.05 ms
        code = ("import time\n"
                "from holodet.polarization import DiagonalSampleSet, polarize_fit\n"
                "from holodet.torus_spectral import closed_form_log_det\n"
                "total = 0.0\n"
                "for k in range(50):\n"
                "    s = DiagonalSampleSet.from_function(closed_form_log_det, 1j + 0.01 * k, 0.3, 162)\n"
                "    t = time.perf_counter()\n"
                "    polarize_fit(s, 8)\n"
                "    total += time.perf_counter() - t\n"
                "print(total)")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) < 0.1


class TestScatteredChecks:
    def test_dispersion_check_spans_row_blocks(self, monkeypatch):
        monkeypatch.setattr(polarization, "_PAIR_BLOCK", 64)
        pts = disc_samples(0, 1.0, 200)
        pts[-1] = pts[0] + 1e-12  # the pair falls in the first and the last block
        s = DiagonalSampleSet(pts, np.zeros(len(pts)), 0, 1.0)
        with pytest.raises(FitRankError, match="dispersion"):
            polarize_fit(s, 2)

    def test_dispersion_check_memory_is_bounded(self):
        rng = np.random.default_rng(7)
        pts = np.sqrt(rng.uniform(0, 1, 3000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3000))
        s = DiagonalSampleSet(pts, pts * np.conj(pts), 0, 1.0)
        tracemalloc.start()
        try:
            fit = polarize_fit(s, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(fit.coefficients[1, 1] - 1.0) < 1e-9
        assert peak < 16e6  # a full 3000 x 3000 distance matrix is 216 MB

    def test_zero_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="count"):
            DiagonalSampleSet.from_function(lambda z: z, 0, 1.0, 0)


class TestSampling:
    def test_disc_samples_deterministic_and_inside(self):
        a = disc_samples(1 + 2j, 0.7, 100)
        b = disc_samples(1 + 2j, 0.7, 100)
        assert np.array_equal(a, b)
        assert len(a) == 7 * 15  # complete rings
        assert np.max(np.abs(a - (1 + 2j))) <= 0.7 + 1e-12
        d = np.abs(a[:, None] - a[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-3  # well dispersed

    def test_each_call_returns_a_fresh_grid_over_one_read_only_unit_grid(self):
        a = disc_samples(1 + 2j, 0.7, 162)
        assert a.flags.writeable and a.flags.owndata
        a[:] = 0
        b = disc_samples(1 + 2j, 0.7, 162)
        assert np.array_equal(b, 1 + 2j + 0.7 * polarization._unit_ring_grid(9, 18))
        assert polarization._unit_ring_grid(9, 18) is polarization._unit_ring_grid(9, 18)
        with pytest.raises(ValueError, match="read-only"):
            polarization._unit_ring_grid(9, 18)[0] = 0

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_is_a_domain_error(self, count):
        with pytest.raises(DomainError, match="count"):
            disc_samples(0.5j, 0.2, count)


class TestChecksBeforeSampling:
    """A bad degree, count or disc is refused before any function is sampled."""

    @pytest.mark.parametrize("degree", [2.5, -1])
    def test_bad_degree_calls_neither_extension(self, degree):
        calls = []
        f1 = lambda z, w: calls.append("f1") or z * w
        f2 = lambda z, w: calls.append("f2") or z * w
        with pytest.raises(DomainError, match=f"degree must be an integer >= 0, got {degree!r}"):
            uniqueness_residual(f1, f2, 1j, 0.5, degree)
        assert calls == []

    def test_nan_radius_calls_neither_extension(self):
        calls = []
        f = lambda z, w: calls.append(z) or z * w
        with pytest.raises(DomainError, match="disc radius must be finite and positive"):
            uniqueness_residual(f, f, 1j, float("nan"), 3)
        assert calls == []

    @pytest.mark.parametrize("count", [0, 2.5])
    def test_bad_count_calls_no_diag(self, count):
        calls = []
        with pytest.raises(DomainError, match=f"count must be an integer >= 1, got {count!r}"):
            DiagonalSampleSet.from_function(lambda z: calls.append(z) or z, 1j, 0.5, count)
        assert calls == []

    def test_disc_samples_checks_the_disc(self):
        with pytest.raises(DomainError, match="disc radius must be finite and positive, got nan"):
            disc_samples(1j, float("nan"), 8)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        s = DiagonalSampleSet.from_function(lambda z: z * np.conj(z) + 1j, 0.5j, 0.4, 25)
        path = tmp_path / "diag.csv"
        path.write_text("re_z,im_z,re_val,im_val\n" + "".join(
            f"{p.real!r},{p.imag!r},{v.real!r},{v.imag!r}\n"
            for p, v in zip(s.points.tolist(), s.values.tolist())))
        loaded = load_diagonal_csv(path)
        assert np.allclose(loaded.points, s.points)
        assert np.allclose(loaded.values, s.values)
        fit = polarize_fit(loaded, 1)
        assert abs(fit.coefficients[1, 1] - 1.0) < 1e-9

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,u,v\n1,2,3,4\n")
        with pytest.raises(DomainError, match="header"):
            load_diagonal_csv(path)

    def test_oversized_field_is_a_domain_error(self, tmp_path):
        # the csv module's own field limit raised an untyped csv.Error
        path = tmp_path / "big.csv"
        path.write_text("re_z,im_z,re_val,im_val\n0.1,0,0.01,0\n" + "1" * 200_000 + ",0,0,0\n")
        with pytest.raises(DomainError, match="row 3: field larger"):
            load_diagonal_csv(path)
