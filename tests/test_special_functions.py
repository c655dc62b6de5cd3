import cmath
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holodet.errors import BudgetError, DomainError
from holodet.special_functions import (
    dedekind_sum,
    eta,
    log_eta,
    reduce,
    reduce_array,
)

mp.mp.dps = 40


def eta_oracle(z: complex) -> complex:
    """Independent high-precision q-product, 400 factors."""
    zm = mp.mpc(z.real, z.imag)
    q = mp.e ** (2j * mp.pi * zm)
    prod = mp.mpf(1)
    for k in range(1, 401):
        prod *= 1 - q ** k
    return complex(mp.e ** (1j * mp.pi * zm / 12) * prod)


GRID = [complex(x, y) for x in (-0.4, -0.2, 0.0, 0.2, 0.4) for y in (0.8, 1.1, 1.4, 1.7, 2.0)]


class TestEta:
    def test_value_at_i_matches_closed_form(self):
        # Gamma(1/4) / (2 pi^(3/4)), cross-checked against the product oracle
        closed = complex(mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf(0.75)))
        assert abs(closed - eta_oracle(1j)) < 1e-25
        assert abs(eta(1j) - 0.7682254223260566) < 1e-14

    def test_matches_oracle_on_grid(self):
        for z in GRID:
            assert abs(eta(z) - eta_oracle(z)) <= 1e-14 * abs(eta_oracle(z))

    def test_translation_multiplier(self):
        for z in (1j, 0.3 + 1.1j, -0.2 + 0.7j):
            lhs = eta(z + 1)
            rhs = cmath.exp(1j * math.pi / 12) * eta(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_inversion_fixed_point(self):
        z = 1j
        lhs = eta(-1 / z)
        rhs = cmath.sqrt(-1j * z) * eta(z)
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs)

    def test_small_height_uses_reduction(self):
        z = 0.123 + 0.004j
        direct = eta_oracle(complex(mp.mpf("0.123"), mp.mpf("0.004")))
        # oracle with 400 terms is not converged at y=0.004; use mpmath's
        # own reduction-free product with many more factors instead
        zm = mp.mpc("0.123", "0.004")
        q = mp.e ** (2j * mp.pi * zm)
        prod = mp.mpf(1)
        for k in range(1, 40001):
            prod *= 1 - q ** k
        ref = complex(mp.e ** (1j * mp.pi * zm / 12) * prod)
        assert abs(eta(z) - ref) <= 1e-11 * abs(ref)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            eta(1 - 1j)
        with pytest.raises(DomainError):
            eta(0.5 + 0j)

    def test_five_term_series_matches_the_product_in_f(self):
        # log_eta sums 1 - q - q^2 + q^5 + q^7 at the reduced point; in F,
        # Im z >= sqrt(3)/2, the rest of the product is below |q|^12 < 1e-28
        corner = complex(-0.5, math.sqrt(3) / 2)
        for z in [corner, 1j] + [z for z in GRID if abs(z) >= 1]:
            assert reduce(z) == ((1, 0, 0, 1), 1, z)
            zm = mp.mpc(z.real, z.imag)
            q = mp.expjpi(2 * zm)
            product = mp.fprod(1 - q ** k for k in range(1, 400))
            assert abs(1 - q - q ** 2 + q ** 5 + q ** 7 - product) < 1e-28
            ref = complex(1j * mp.pi * zm / 12 + mp.log(product))
            assert abs(log_eta(z) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("z", [complex("nan+1j"), complex(0, math.inf),
                                   complex(math.inf, 1), complex(-math.inf, 1),
                                   complex(0.5, math.nan)])
    def test_rejects_non_finite(self, z):
        for func in (eta, log_eta):
            with pytest.raises(DomainError, match="finite"):
                func(z)


class TestLogEta:
    def test_value_at_i(self):
        v = log_eta(1j)
        assert abs(v - complex(mp.log(eta_oracle(1j).real))) < 1e-14
        assert abs(v.imag) < 1e-14

    def test_dominant_term_at_high_point(self):
        v = log_eta(10j)
        assert abs(v - (-10 * math.pi / 12)) < 1e-26 + 1e-15

    def test_exp_roundtrip_on_grid(self):
        for z in GRID:
            lhs = cmath.exp(log_eta(z))
            rhs = eta(z)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def log_eta_oracle(z: complex) -> complex:
    """Canonical series in mpmath, summed at z as given until |q^n| < 1e-25."""
    zm = mp.mpc(z.real, z.imag)
    q = mp.e ** (2j * mp.pi * zm)
    total, qn = 1j * mp.pi * zm / 12, q
    while abs(qn) > mp.mpf(10) ** -25:
        total += mp.log(1 - qn)
        qn *= q
    return complex(total)


class TestCusps:
    """log_eta and the closed form near the cusp 0, where the series alone fails."""

    def reference(self, z):
        if z == 1e-5j:
            # the series needs ~10^6 terms here; use mpmath's eta at -1/z = 1e5 i
            # and the inversion law log eta(-1/z) = log eta(z) + Log(-i z)/2
            return complex(mp.log(mp.eta(mp.mpc(0, 1e5))) - mp.log(mp.mpf(1e-5)) / 2)
        return log_eta_oracle(z)

    @pytest.mark.parametrize("z", [1e-5j, 0.001j, 0.123 + 0.004j])
    def test_log_eta_matches_mpmath(self, z):
        ref = self.reference(z)
        assert abs(log_eta(z) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("z", [1e-5j, 0.001j, 0.123 + 0.004j])
    def test_closed_form_matches_mpmath(self, z):
        from holodet.torus_spectral import closed_form_log_det

        ref = math.log(2 * math.pi) + 0.5 * math.log(z.imag) + 2 * self.reference(z).real
        value = closed_form_log_det(z)
        assert math.isfinite(value)
        assert abs(value - ref) <= 1e-13 * abs(ref)


class TestDiscriminant:
    # the laws of Delta = eta^24 read on log_eta, where they are exact code:
    # Delta(z + 1) = Delta(z) and Delta(-1/z) = z^12 Delta(z).  z and -1/z lie
    # above Im 0.5, so log_eta sums the series with no reduction

    def test_translation_invariance(self):
        for z in GRID[::3]:
            assert abs(log_eta(z + 1) - log_eta(z) - 1j * math.pi / 12) < 1e-13

    def test_inversion_weight_twelve(self):
        for z in (0.3 + 1.1j, -0.25 + 0.9j, 0.1 + 1.6j):
            assert min(z.imag, (-1 / z).imag) > 0.5
            assert abs(log_eta(-1 / z) - log_eta(z) - 0.5 * cmath.log(-1j * z)) < 1e-13


def log_eta_pentagonal(z: complex) -> complex:
    """pi*i*z/12 + principal Log of Euler's pentagonal series for prod (1 - q^n), in mpmath.

    The series sum_n (-1)^n q^(n(3n-1)/2) (1 + q^n) needs only ~sqrt(1/Im z)
    terms; near a cusp the product is about exp(-pi/(12 Im z)), so the
    working precision covers that cancellation.  Its Log is principal: it
    differs from the canonical branch by 2 pi i k.
    """
    dps = int(math.pi / (12 * z.imag) / 2.3) + 40
    with mp.workdps(dps):
        zm = mp.mpc(z.real, z.imag)
        q = mp.expjpi(2 * zm)
        total, term, step, qn, n = mp.mpc(1), mp.mpc(1), q, q, 1
        while True:
            term *= step  # q^(n(3n-1)/2)
            total += (-1) ** n * term * (1 + qn)
            if abs(term) < mp.mpf(10) ** -dps:
                return complex(1j * mp.pi * zm / 12 + mp.log(total))
            n, step, qn = n + 1, step * q ** 3, qn * q


@st.composite
def near_rationals(draw):
    """A point within 1e-3 of p/q, q <= 7, and its image under a word in S, T, T^-1."""
    den = draw(st.integers(1, 7))
    num = draw(st.integers(-den, den))
    y = draw(st.floats(3e-4, 1e-3))
    x = draw(st.floats(-1.0, 1.0)) * math.sqrt(1e-6 - y * y)
    z = num / den + complex(x, y)
    image = z
    for letter in draw(st.lists(st.sampled_from("STU"), max_size=6)):
        image = -1 / image if letter == "S" else image + (1 if letter == "T" else -1)
    return z, image


class TestNearRationals:
    """Near a cusp log_eta makes several reduction passes before it sums the series."""

    @given(near_rationals())
    @settings(max_examples=15, deadline=None)
    def test_matches_pentagonal_series(self, points):
        for z in points:
            if z.imag < 3e-4:  # an image pushed this low costs the oracle too much
                continue
            value = log_eta(z)
            ref = log_eta_pentagonal(z)
            ref += 2j * math.pi * round((value.imag - ref.imag) / (2 * math.pi))
            # every map starts from z itself, with c z + d rounded once: no loss near p/q
            assert abs(value - ref) <= 1e-14 * abs(ref)


def exact_image(gamma, z):
    """gamma z in exact rationals, for the float z as given."""
    a, b, c, d = gamma
    x, y = Fraction(z.real), Fraction(z.imag)
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


class TestReduce:
    def test_fixed_points(self):
        for z in (1j, 2j, 0.3 + 1.1j):
            assert reduce(z) == ((1, 0, 0, 1), 1, z)

    def test_orbit_collapse(self):
        z = 0.3 + 1.1j
        for w in (z + 3, -1 / z, -1 / (z - 1) + 2):
            _, _, zc = reduce(w)
            assert abs(zc - z) < 1e-12

    @given(st.one_of(near_rationals().map(lambda pair: pair[1]),
                     st.builds(complex, st.floats(-1e6, 1e6),
                               st.floats(-15, 1).map(lambda e: 10.0 ** e))))
    @example(complex(-2.704289281130843, 2.2204971052921466e-15))  # float moves alone miss F
    @settings(max_examples=200, deadline=None)
    def test_matches_the_exact_rational_image(self, z):
        (a, b, c, d), u, zc = reduce(z)
        assert a * d - b * c == 1 and (c > 0 or (c, d) == (0, 1))
        assert abs(zc.real) <= 0.5 and abs(zc) >= 1 - 1e-12
        re, im = exact_image((a, b, c, d), z)
        # a few ulps of the two terms of z_c = a/c - 1/(c u), a taken mod c
        ulps = 4 * 2.0 ** -53 * (abs(zc) + (1 / abs(c * u) if c else 0))
        assert abs(Fraction(zc.real) - re) <= ulps and abs(Fraction(zc.imag) - im) <= ulps
        assert abs(u - (c * z + d)) <= 4 * 2.0 ** -53 * (c * abs(z) + abs(d))

    @pytest.mark.parametrize("z", [0.3 + 1e-300j, 5e-324j, 1e-310j, complex(1e-310, 1e-320)])
    def test_below_its_reach_is_a_budget_error(self, z):
        # c reaches 2^26 (0.3 + 1e-300j) or z_c overflows: never NaN, inf or OverflowError
        from holodet.torus_spectral import closed_form_log_det

        for func in (reduce, log_eta, eta, closed_form_log_det):
            with pytest.raises(BudgetError):
                func(z)

    def test_tiny_height_at_a_cusp_is_finite(self):
        value = log_eta(1e-300j)
        assert cmath.isfinite(value)
        assert abs(value.real - (-math.pi / 12e-300 + 0.5 * math.log(1e300))) < 1e-15 * 1e299


def dedekind_definition(d, c):
    def saw(x):
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)
    return sum(saw(Fraction(r, c)) * saw(Fraction(d * r, c)) for r in range(1, c))


def test_dedekind_sum_matches_its_definition():
    for c in range(1, 30):
        for d in range(-2 * c, 2 * c):
            if math.gcd(d, c) == 1:
                assert dedekind_sum(d, c) == 12 * c * dedekind_definition(d, c), (d, c)


# --- the array reduction against the scalar one -------------------------------

EPS = 2.0 ** -53


@st.composite
def sl2z_images(draw):
    """A point of H, down to height 1e-12 or out to |Re z| = 1e300, or an image of one under S, T, T^-1."""
    base = draw(st.one_of(
        near_rationals().map(lambda pair: pair[1]),
        st.builds(complex, st.floats(-1.0, 1.0), st.floats(-12, 1).map(lambda e: 10.0 ** e)),
        st.builds(complex, st.floats(-1e300, 1e300), st.floats(-12, 2).map(lambda e: 10.0 ** e)),
    ))
    for letter in draw(st.lists(st.sampled_from("STU"), max_size=6)):
        moved = -1 / base if letter == "S" else base + (1 if letter == "T" else -1)
        if not 1e-12 <= moved.imag:
            break
        base = moved
    return base


class TestArrayReduction:
    """reduce_array and the array log_eta and dedekind_sum, checked against the scalar bodies."""

    @given(st.lists(sl2z_images(), min_size=1, max_size=40))
    @example([complex(1e300, 1e-3), complex(-1e300, 2.0), complex(3e15 + 0.5, 1e-7),
              complex(1e-12, 1e-12), 1e-12j, complex(-2.704289281130843, 2.2204971052921466e-15)])
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scalar_reduction(self, points):
        (a, b, c, d), shift, u, zc = reduce_array(np.array(points))
        for i, z in enumerate(points):
            gamma, u_i, zc_i = reduce(z)
            s = int(shift[i])  # the shift folds in Python integers, never in int64
            assert (int(a[i]), int(b[i]) - int(a[i]) * s, int(c[i]), int(d[i]) - int(c[i]) * s) == gamma
            assert u[i] == u_i
            # CPython's and numpy's complex divisions may differ in the last bit
            ulps = 4 * EPS * (abs(zc_i) + (1 / abs(gamma[2] * u_i) if gamma[2] else 0))
            assert abs(zc[i] - zc_i) <= ulps

    def test_keeps_the_shape(self):
        z = np.array([[1j, 0.3 + 0.01j, -7.4 + 0.2j], [2.5 + 1e-5j, 1e200 + 1j, 0.5 + 0.5j]])
        (a, b, c, d), shift, u, zc = reduce_array(z)
        assert all(v.shape == z.shape for v in (a, b, c, d, shift, u, zc))
        assert all(v.dtype == np.int64 for v in (a, b, c, d))
        assert log_eta(z).shape == z.shape

    @given(st.lists(st.tuples(st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 26 - 1))
                    .filter(lambda p: math.gcd(*p) == 1), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_dedekind_sums_match_the_scalar_ones(self, pairs):
        d, c = np.array(pairs).T
        assert dedekind_sum(d, c).tolist() == [dedekind_sum(int(x), int(y)) for x, y in pairs]

    @given(st.lists(near_rationals(), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_log_eta_matches_the_scalar_one_near_rationals(self, pairs):
        points = [z for pair in pairs for z in pair]
        values = log_eta(np.array(points))
        for z, value in zip(points, values):
            ref = log_eta(z)
            assert abs(value - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("below", [1e-310j, 0.3 + 1e-300j, 5e-324j])
    def test_a_batch_below_the_reach_is_a_budget_error(self, below):
        from holodet.torus_spectral import closed_form_log_det

        batch = np.array([1j, 0.2 + 0.3j, below])
        for func in (reduce_array, log_eta, closed_form_log_det):
            with pytest.raises(BudgetError, match=re.escape(repr(below))):
                func(batch)

    def test_a_gamma_past_int64_is_a_budget_error(self):
        # the scalar body keeps exact Python integers; int64 ends near height 1e-18
        assert reduce(complex(1e-200, 1e-200))[0][2] == 1
        with pytest.raises(BudgetError, match="int64"):
            reduce_array(np.array([complex(1e-200, 1e-200)]))

    def test_a_point_off_h_is_named(self):
        with pytest.raises(DomainError, match=r"Im\(z\) must be positive, got \(0\.5-1j\)"):
            log_eta(np.array([1j, 0.5 - 1j, -2j]))
        with pytest.raises(DomainError, match="finite, got \\(nan"):
            log_eta(np.array([1j, complex("nan+1j")]))
