import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodet import torus_spectral
from holodet.errors import BudgetError, DomainError
from holodet.polarization import DiagonalSampleSet, polarize_fit
from holodet.special_functions import eta, log_eta
from holodet.torus_spectral import closed_form_log_det, zeta_log_det

FOUR_PI_SQ = 4 * math.pi ** 2


def theta_at(z, t, poisson):
    """Theta(t) at one time from one _theta_sums node, origin term added back."""
    (value,), (tail,) = torus_spectral._theta_sums(z, [t], poisson)
    assert 0 <= tail <= torus_spectral.TAIL_TOLERANCE
    return value + (z.imag / (4 * math.pi * t) if poisson else 1.0)


class TestHeatTrace:
    def test_large_time_limit(self):
        theta = theta_at(1j, 10.0, poisson=False)
        assert theta - 1.0 < 9 * math.exp(-40 * math.pi ** 2) + 1e-15

    def test_small_time_area_law(self):
        assert abs(1e-3 * theta_at(1j, 1e-3, poisson=True) - 1 / (4 * math.pi)) < 1e-12

    def test_direct_poisson_agree_at_split(self):
        t = torus_spectral.SPLIT_TIME
        d = theta_at(1j, t, poisson=False)
        p = theta_at(1j, t, poisson=True)
        assert abs(d - p) < 1e-12

    def test_direct_poisson_agree_on_window(self):
        for z in (1j, 0.3 + 1.1j, 2j):
            for t in np.linspace(0.5, 2.0, 7):
                d = theta_at(z, t, poisson=False)
                p = theta_at(z, t, poisson=True)
                assert abs(d - p) <= 1e-11 * max(1.0, d)

    def test_budget_error_with_tiny_cap(self):
        # the Poisson side's k = 0 column at t = 0.9 needs about 11 terms for 1e-14
        t = 0.9
        with pytest.raises(BudgetError):
            torus_spectral._box(np.array([[1 / (4 * t)]]), np.array([[1]]),
                                np.array([[2 / (4 * math.pi * t)]]), 1e-14, cap=1)

    def test_vanishing_coefficient_is_a_budget_error(self):
        # a = 4 pi^2 t is 4e-19 here, so the box the tail bound needs is far past the cap
        with pytest.raises(BudgetError):
            torus_spectral._theta_sums(1j, [1e-20], poisson=False)


def brute_lattice_sum(a_out, a_in, x):
    """sum over (j, k) != 0 of exp(-a_out j^2 - a_in (k - j x)^2), |x| <= 1/2.

    The box |j| <= J, |k| <= K is sized to the coefficients: every dropped
    term is below e^-46 (1e-20) of the nearest kept one on its axis.
    """
    big_j = math.ceil(math.sqrt(46 / a_out))
    big_k = math.ceil(math.sqrt(46 / a_in) + big_j * abs(x))
    j, k = np.meshgrid(np.arange(-big_j, big_j + 1), np.arange(-big_k, big_k + 1), indexing="ij")
    terms = np.exp(-(a_out * j.astype(float) ** 2 + a_in * (k - j * x) ** 2))
    terms[big_j, big_k] = 0.0
    return float(np.sum(terms))


class TestLatticeSums:
    """The hybrid theta sum against one brute-force lattice sum per node."""

    TS = {False: [3.0, 0.5, 1.7, 0.8, 2.4, 1.0, 0.6],       # direct side
          True: [0.9, 0.0056, 0.3, 1.0, 0.02, 0.6, 0.1]}    # Poisson side

    @pytest.mark.parametrize("poisson", [False, True], ids=["direct", "poisson"])
    @pytest.mark.parametrize("z", [1j, 0.3 + 1.1j, -0.45 + 2.7j, 0.45 + 130j, 0.2 + 1000j])
    def test_each_node_matches_brute_force(self, z, poisson):
        ts = np.array(self.TS[poisson])
        values, tails = torus_spectral._theta_sums(z, ts, poisson)
        x, y = z.real, z.imag
        for t, value, tail in zip(ts, values, tails):
            if poisson:
                pref = y / (4 * math.pi * t)
                expected = pref * brute_lattice_sum(y * y / (4 * t), 1 / (4 * t), -x)
            else:
                pref = 1.0
                expected = brute_lattice_sum(FOUR_PI_SQ * t, FOUR_PI_SQ * t / y ** 2, x)
            assert abs(value - expected) <= 1e-14 * abs(expected), (t, value, expected)
            assert 0 <= tail <= torus_spectral.TAIL_TOLERANCE * min(pref, 1.0)

    def test_three_lattice_calls_per_determinant(self, monkeypatch):
        calls = []
        real = torus_spectral._theta_sums
        monkeypatch.setattr(torus_spectral, "_theta_sums",
                            lambda z, ts, poisson: calls.append((len(ts), poisson))
                            or real(z, ts, poisson))
        zeta_log_det(0.3 + 1.1j)
        assert calls == [(65, True), (1, False), (64, False)]


KERNEL_ARGUMENTS = {
    "polarize_fit degree -1": lambda: polarize_fit(
        DiagonalSampleSet.from_function(closed_form_log_det, 1.5j, 0.3, 8), -1),
}


@pytest.mark.parametrize("call", KERNEL_ARGUMENTS.values(), ids=KERNEL_ARGUMENTS.keys())
def test_bad_kernel_argument_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


class TestZetaDet:
    def test_zeta_zero_diagnostic(self):
        for z in (1j, 2j, 0.3 + 1.1j):
            r = zeta_log_det(z)
            assert abs(r.zeta_zero + 1.0) < 1e-9

    def test_matches_lattice_normalization(self):
        # the spectral determinant of the area-y torus: exp(-zeta'(0)) = y^2 |eta|^4
        for z in (1j, 2j, 0.3 + 1.1j):
            r = zeta_log_det(z)
            y = r.modulus.imag
            expected = 2 * math.log(y) + 4 * math.log(abs(eta(r.modulus)))
            assert abs(r.log_det - expected) < 1e-10

    def test_ratio_constancy_discriminates_normalization(self):
        points = (1j, 0.3 + 1.1j)
        ratios = []
        for z in points:
            r = zeta_log_det(z)
            y = z.imag
            ratios.append(math.exp(r.log_det) / (y ** 2 * abs(eta(z)) ** 4))
        assert abs(ratios[0] - ratios[1]) <= 1e-8 * abs(ratios[0])

    def test_modular_invariance(self):
        z = 0.3 + 1.1j
        base = zeta_log_det(z).log_det
        assert abs(zeta_log_det(z + 1).log_det - base) < 1e-9
        assert abs(zeta_log_det(-1 / z).log_det - base) < 1e-9

    def test_split_time_independence(self, monkeypatch):
        b = zeta_log_det(1j)
        monkeypatch.setattr(torus_spectral, "SPLIT_TIME", 0.7)
        a = zeta_log_det(1j)
        assert abs(a.log_det - b.log_det) < 1e-10

    def test_rejects_non_finite_modulus(self):
        with pytest.raises(DomainError):
            zeta_log_det(complex("nan+1j"))

    @staticmethod
    def assert_matches_eta(z):
        r = zeta_log_det(z)
        zc = r.modulus
        expected = 2 * math.log(zc.imag) + 4 * log_eta(zc).real
        assert abs(r.log_det - expected) <= 1e-10, (z, zc, r.log_det - expected)
        assert r.tail_bound <= 10 * torus_spectral.TAIL_TOLERANCE

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-0.5, 0.5), log_height=st.floats(0.0, math.log(1e3)),
           word=st.text(alphabet="STU", max_size=8))
    def test_matches_eta_on_sl2z_orbits(self, x, log_height, word):
        # U is T^-1; the word moves a fundamental-domain point around its orbit
        z = complex(x, max(math.exp(log_height), math.sqrt(1 - x * x)))
        for letter in word:
            z = -1 / z if letter == "S" else z + (1 if letter == "T" else -1)
        self.assert_matches_eta(z)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 7), p=st.integers(-7, 7), radius=st.floats(2e-4, 1e-3),
           angle=st.floats(0.01, math.pi - 0.01))
    def test_matches_eta_near_rational_cusps(self, q, p, radius, angle):
        # within 1e-3 of p/q the reduced height reaches sin(angle) / (q^2 radius)
        self.assert_matches_eta(p / q + radius * complex(math.cos(angle), math.sin(angle)))

    @pytest.mark.parametrize("z", [0.5 + 135j, 0.001j, 0.5 + 0.001j, 0.2 + 1000j])
    def test_matches_eta_above_height_130(self, z):
        # reduced heights 135, 1000, 250 and 1000
        self.assert_matches_eta(z)

    def test_spectral_route_reaches_height_1e20(self):
        # no BudgetError where the closed form gives the value: with a fixed t_min
        # the cut below it would pass the budget near height 5e10
        worst = 0.0
        for y in np.logspace(3, 20, 90):
            for x in (-0.5, -0.17, 0.0, 0.31):
                r = zeta_log_det(complex(x, y))
                expected = 2 * math.log(y) + 4 * log_eta(complex(x, y)).real
                worst = max(worst, abs(r.log_det - expected) / abs(expected))
                assert r.tail_bound <= 10 * torus_spectral.TAIL_TOLERANCE, (x, y)
        assert worst <= 1e-13

    def test_spectral_route_reaches_height_1e150(self):
        # the t_max search stopped after 400 steps of x1.5, near 5.5e70, while the
        # cut above it needs t_max ~ y^2: from height ~3.2e35 the bound passed budget
        worst = 0.0
        for y in 10.0 ** np.arange(3.0, 150.5, 0.5):
            for x in (0.0, 0.1, 0.37):
                value = zeta_log_det(complex(x, y)).log_det
                closed = closed_form_log_det(complex(x, y))
                expected = 2 * closed - 2 * math.log(2 * math.pi) + math.log(y)
                worst = max(worst, abs(value - expected) / abs(expected))
        assert worst <= 1e-13

    def test_above_its_reach_is_a_budget_error(self):
        # above reduced height ~10^153.5 a theta box passes LATTICE_RADIUS: a typed limit
        assert math.isfinite(closed_form_log_det(complex(0.1, 1e154)))
        with pytest.raises(BudgetError, match="radius cap"):
            zeta_log_det(complex(0.1, 1e154))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_heights_give_a_value_or_a_budget_error(self):
        # past reduced height about 1e153 the box terms overflow; no numpy
        # warning, and no non-finite value, may come out of that
        heights = [*np.logspace(3, 308, 62), 1e154, 1e155, 1.7e308]
        for y in heights:
            try:
                r = zeta_log_det(complex(0.1, y))
            except BudgetError:
                continue
            assert all(map(math.isfinite, (r.log_det, r.zeta_zero, r.tail_bound))), y

    def test_nan_tail_bound_is_a_budget_error(self, monkeypatch):
        theta_sums = torus_spectral._theta_sums

        def nan_tails(z, ts, poisson):  # nan tails on the small-t half only
            values, tails = theta_sums(z, ts, poisson)
            return values, np.full_like(tails, np.nan) if poisson else tails

        monkeypatch.setattr(torus_spectral, "_theta_sums", nan_tails)
        with pytest.raises(BudgetError, match="nan"):
            zeta_log_det(1j)

    def test_tail_certificate(self):
        r = zeta_log_det(0.3 + 1.1j)
        assert 0 <= r.tail_bound <= torus_spectral.TAIL_TOLERANCE


class TestClosedForm:
    def test_value_at_i(self):
        # log(2 pi |eta(i)|^2) with the eta oracle value
        assert abs(closed_form_log_det(1j) - 1.310532925911510) < 1e-13

    def test_translation_invariance(self):
        assert abs(closed_form_log_det(1j) - closed_form_log_det(1 + 1j)) < 1e-13

    def test_weber_identity_at_2i(self):
        # eta(2i) = eta(i) / 2^(3/8)
        lhs = closed_form_log_det(2j)
        eta_2i = abs(eta(1j)) / 2 ** 0.375
        rhs = math.log(2 * math.pi * math.sqrt(2) * eta_2i ** 2)
        assert abs(lhs - rhs) < 1e-13
