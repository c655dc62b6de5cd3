import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodet.errors import BudgetError, DomainError, NotPluriharmonicError
from holodet.extension import (
    ExtensionRecipe,
    ProductPoint,
    assemble_extension,
    genus1_extension,
    genus1_pole_form,
    genus1_recipe,
    pluriharmonic_split,
    symmetrized_evaluator,
)
from holodet.potential_builder import cone_potential, cone_potentials
from holodet.special_functions import log_eta
from holodet.torus_spectral import closed_form_log_det
from holodet.verify import DIAGONAL_CONSTANT, antiholomorphic_check, invariance_checks
from holodet.wirtinger import dz_dzbar, wirtinger_dzbar

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


class TestProductPoint:
    def test_model_constraints(self):
        ProductPoint(1j, -1j)
        with pytest.raises(DomainError):
            ProductPoint(-1j, -1j)
        with pytest.raises(DomainError):
            ProductPoint(1j, 1j)

    @pytest.mark.parametrize("z, w", [(complex("nan+1j"), -1j), (complex(0, math.inf), -1j),
                                      (1j, complex("nan-1j")), (1j, complex(0, -math.inf))])
    def test_rejects_non_finite(self, z, w):
        with pytest.raises(DomainError, match="finite"):
            ProductPoint(z, w)

    def test_diagonal_constructor(self):
        p = ProductPoint.diagonal(0.3 + 0.8j)
        assert p.w == (0.3 - 0.8j)


class TestSymmetrize:
    def test_bilinear(self):
        qt = symmetrized_evaluator(lambda z, w: z * w)
        p = ProductPoint(0.5 + 1.2j, 0.1 - 0.7j)
        assert abs(qt(p.z, p.w) - p.z * p.w) < 1e-15
        d = ProductPoint.diagonal(0.5 + 1.2j)
        val = qt(d.z, d.w)
        assert abs(val.imag) < 1e-15 and val.real == pytest.approx(abs(d.z) ** 2)

    def test_linear_imaginary(self):
        qt = symmetrized_evaluator(lambda z, w: 1j * z)
        p = ProductPoint(0.4 + 1.1j, -0.2 - 0.6j)
        assert abs(qt(p.z, p.w) - 0.5j * (p.z - p.w)) < 1e-15
        d = ProductPoint.diagonal(0.4 + 1.1j)
        assert qt(d.z, d.w) == pytest.approx(-1.1)

    def test_genus1_cone_potential_diagonal(self):
        form = genus1_pole_form()
        q = lambda Z, W: cone_potentials(form, Z, W).values
        qt = symmetrized_evaluator(q)
        for z in (1j, 0.3 + 0.9j, -0.4 + 1.6j):
            val = qt(z, np.conj(z))
            assert abs(val.imag) < 1e-11
            u = lambda p: qt(p, np.conj(p)).real
            lap = dz_dzbar(u, z, 1e-3)
            assert abs(lap - (z - np.conj(z)) ** -2) < 1e-6

    def test_both_halves_from_one_batched_call(self):
        calls = []
        form = genus1_pole_form()
        qt = symmetrized_evaluator(
            lambda Z, W: calls.append(len(Z)) or cone_potentials(form, Z, W).values)

        def two_calls(z, w):
            return 0.5 * (cone_potential(form, z, w) + np.conj(cone_potential(form, np.conj(w), np.conj(z))))

        z, w = 0.3 + 0.9j, -0.2 - 1.4j
        assert abs(qt(z, w) - two_calls(z, w)) <= 1e-15
        grid = np.array([[1j, 0.3 + 0.9j, -0.4 + 1.6j]])
        values = qt(grid, grid.conj())
        assert values.shape == grid.shape
        assert np.all(np.abs(values - [two_calls(p, np.conj(p)) for p in grid[0]]) <= 1e-15)
        assert calls == [2, 6]


class TestWpForm:
    def test_log_potential_reproduces_it(self):
        # d_z d_zbar log(z - zbar) at i equals -1/4
        u = lambda p: cmath.log(p - p.conjugate()).real
        assert abs(dz_dzbar(u, 1j, 1e-3) - (-0.25)) < 1e-8


class TestPluriharmonicSplit:
    def test_quadratic(self):
        f = pluriharmonic_split(lambda z: (z * z).real, 1j, radius=0.95)
        for z in (0.3 + 1.2j, 1j, -0.4 + 0.7j, 0.5 + 1.5j):
            assert abs(f(z) - z * z / 2) < 1e-10  # imaginary constant is 0 here
            assert abs((z * z).real - 2 * f(z).real) < 1e-10

    def test_constant(self):
        f = pluriharmonic_split(lambda z: np.full(z.shape, 3.5), 1j, radius=0.95)
        assert abs(f(0.4 + 0.9j) - 1.75) < 1e-12

    def test_log_modulus(self):
        h = lambda z: np.log(np.abs(z - 5.0) ** 2)
        f = pluriharmonic_split(h, 1j, radius=0.95)
        for z in (0.6 + 1.1j, -0.3 + 0.5j):
            assert abs(h(z) - 2 * f(z).real) < 1e-10
            # f = log(z - 5) + const: compare via exponentials
            ratio = cmath.exp(f(z) - f(1j)) - (z - 5.0) / (1j - 5.0)
            assert abs(ratio) < 1e-10

    def test_holomorphy_of_f(self):
        f = pluriharmonic_split(lambda z: np.exp(z).real, 1j, radius=0.95)
        for z in (1j + 0.3, 1j - 0.2 + 0.4j):
            assert abs(wirtinger_dzbar(f, z, 1e-3)) < 1e-7

    def test_h_samples_per_evaluation(self):
        # the build samples the boundary circle and 8 check points in one
        # batched call; evaluating f sums the stored series and never samples h
        calls = []
        h = lambda z: calls.append(z.shape) or (z * z).real
        f = pluriharmonic_split(h, 1j, radius=0.95)
        assert calls == [(264,)]
        calls.clear()
        f(0.3 + 1.2j)
        assert calls == []

    def test_rejects_non_pluriharmonic(self):
        with pytest.raises(NotPluriharmonicError):
            pluriharmonic_split(lambda z: np.abs(z) ** 2, 1j, radius=0.95)

    def test_rejects_points_outside_the_disc(self):
        f = pluriharmonic_split(lambda z: (z * z).real, 1j, radius=0.95)
        f(1j + 0.95)  # the closed disc
        for z in (1j + 0.96, 2.5j, 0.01j):
            with pytest.raises(DomainError):
                f(z)

    @pytest.mark.parametrize("center, radius", [(1j, 1.0), (1j, 0.0), (-1j, 0.5), (complex("nan+1j"), 0.5)])
    def test_rejects_discs_not_in_the_half_plane(self, center, radius):
        with pytest.raises(DomainError):
            pluriharmonic_split(lambda z: np.zeros(z.shape), center, radius)

    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-2.0, 2.0), cy=st.floats(0.2, 5.0), share=st.floats(0.05, 0.95),
           coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                           min_size=1, max_size=9),
           probes=st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi)),
                           min_size=1, max_size=5))
    def test_polynomial_reconstruction_property(self, cx, cy, share, coeffs, probes):
        # h = Re sum a_k (z - c)^k of degree <= 8 on D(c, r), r <= 0.95 Im c.
        # z = infinity, the pole of a polynomial, lies on |phi| = 1; for
        # r/Im c above about 0.93 the degree-8 series needs more than 128
        # terms, and the build doubles its samples instead of refusing
        c, r = complex(cx, cy), share * cy
        a = [complex(re, im) * r ** -k for k, (re, im) in enumerate(coeffs)]
        h = lambda z: sum(ak * (z - c) ** k for k, ak in enumerate(a)).real
        f = pluriharmonic_split(h, c, r)
        for s, t in probes:
            z = c + s * r * cmath.exp(1j * t)
            assert abs(h(z) - 2.0 * f(z).real) < 1e-10
        with pytest.raises(DomainError):
            f(c + 1.01 * r * cmath.exp(1j * probes[0][1]))

    @pytest.mark.parametrize("radius, sizes", [(0.9, [264]), (0.95, [264, 256]),
                                               (0.99, [264, 256, 512])])
    def test_samples_double_while_the_tail_is_too_large(self, radius, sizes):
        # Re((z - i)/r)^8 on D(i, r): N = 256 resolves r = 0.9, r = 0.95 needs
        # N = 512 and r = 0.99 N = 1024; each doubling samples the midpoints only
        calls = []
        h = lambda z: calls.append(np.size(z)) or (((z - 1j) / radius) ** 8).real
        f = pluriharmonic_split(h, 1j, radius)
        assert calls == sizes
        calls.clear()
        for s, t in ((0.0, 0.0), (0.5, 1.0), (0.9, 2.5), (0.99, 4.0)):
            z = 1j + s * radius * cmath.exp(1j * t)
            assert abs(h(z) - 2.0 * f(z).real) < 1e-12

    def test_sample_cap_raises_budget_error(self):
        # Re 1/(z - 1.96i) has its pole just outside D(i, 0.95): no N up to the cap resolves it
        from holodet.extension import SPLIT_MAX_SAMPLES

        calls = []
        h = lambda z: calls.append(np.size(z)) or (1.0 / (z - 1.96j)).real
        with pytest.raises(BudgetError, match=f"{SPLIT_MAX_SAMPLES} samples"):
            pluriharmonic_split(h, 1j, 0.95)
        assert sum(calls) == SPLIT_MAX_SAMPLES + 8

    @pytest.mark.parametrize("z, w", [(0.15j, -0.15j), (9.5j, -0.6j), (0.3 + 0.3j, -9.5j),
                                      (2 + 3j, -1 - 4j), (-0.3629 + 0.7727j, -0.4177 - 2.4941j)])
    def test_genus1_split_recipe_matches_eta_oracle(self, z, w):
        rec = genus1_recipe(-0.5, "split")
        p = ProductPoint(z, w)
        assert abs(assemble_extension(rec, p) - (genus1_extension(p) - DIAGONAL_CONSTANT)) < 1e-10


class TestAssembleExtension:
    def test_identity_period_map_at_conjugate_pair(self):
        rec = ExtensionRecipe(q_tilde=lambda z, w: 0.0, period_map=lambda z: [[z]],
                              f=lambda z: 0.0, genus_constant=0.0)
        # matrix term log((i - (-i))/2i) = log 1 = 0
        assert abs(assemble_extension(rec, ProductPoint(1j, -1j))) < 1e-15

    def test_reduces_to_log_matrix_term(self):
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: [[z]], lambda z: 0.0, 0.0)
        p = ProductPoint(0.7 + 1.3j, -0.2 - 0.6j)
        expected = cmath.log((p.z - p.w) / 2j)
        assert abs(assemble_extension(rec, p) - expected) < 1e-15
        fz = lambda a: assemble_extension(rec, ProductPoint(a, p.w))
        assert abs(wirtinger_dzbar(fz, p.z, 1e-4)) < 1e-8

    def test_eta_recipe_equals_eta_extension(self):
        rec = genus1_recipe(-0.5, f_mode="eta")
        for z, w in ((1j, -1j), (0.5 + 1.2j, -0.3 - 0.8j), (2j, -0.5j)):
            p = ProductPoint(z, w)
            assert abs(assemble_extension(rec, p) - genus1_extension(p)) < 1e-11

    def test_diagonal_identity(self):
        # on w = zbar: C q~ + log det(Im tau) + f + conj(f), assembled directly
        rec = genus1_recipe(-0.5, f_mode="eta")
        for z in (0.4 + 1.1j, 1.6j):
            p = ProductPoint.diagonal(z)
            lhs = assemble_extension(rec, p)
            rhs = (-0.5 * rec.q_tilde(z, np.conj(z)) + math.log(z.imag)
                   + 2 * rec.f(z).real)
            assert abs(lhs - rhs) < 1e-9

    def test_spectral_recipe_diagonal(self):
        from holodet.special_functions import eta

        rec = genus1_recipe(1.0, f_mode="eta2")
        z = 0.3 + 1.1j
        val = assemble_extension(rec, ProductPoint.diagonal(z))
        expected = 2 * math.log(z.imag) + 4 * math.log(abs(eta(z)))
        assert abs(val - expected) < 1e-10

    def test_split_recipe_reproduces_its_diagonal(self):
        rec = genus1_recipe(-0.5, f_mode="split")
        z = 0.4 + 1.2j
        val = assemble_extension(rec, ProductPoint.diagonal(z))
        assert abs(val - closed_form_log_det(z)) < 1e-8

    def test_rejects_asymmetric_period_map(self):
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: np.array([[z, 1.0], [0.0, z]]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_rejects_singular_matrix(self):
        # tau_22 constant and real makes the second diagonal entry vanish
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: np.array([[z, 0.0], [0.0, 3.0]]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_synthetic_genus2_holomorphy(self):
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: np.array([[2 * z, 0.3 * z], [0.3 * z, 3 * z + 1j]]),
                              lambda z: 0.1 * z * z, 0.0)
        p = ProductPoint(0.5 + 1.4j, -0.6 - 1.1j)
        fz = lambda a: assemble_extension(rec, ProductPoint(a, p.w))
        fw = lambda a: assemble_extension(rec, ProductPoint(p.z, a))
        assert abs(wirtinger_dzbar(fz, p.z, 1e-4)) < 1e-7
        assert abs(wirtinger_dzbar(fw, p.w, 1e-4)) < 1e-7
        # diagonal realness: Im is constant (here zero) on the diagonal
        for z in (1j, 0.3 + 0.9j):
            val = assemble_extension(rec, ProductPoint.diagonal(z))
            assert abs(val.imag) < 1e-12


def genus3_recipe():
    # tau(z) = z I + 0.01 J (J all ones): at wbar = i, M = (z + i)/2i I, and
    # along z = -x + i, arg det M = 3 arctan(x/2) passes pi at x = 2 sqrt(3)
    return ExtensionRecipe(lambda z, w: 0.0,
                           lambda z: z * np.eye(3) + 0.01 * np.ones((3, 3)),
                           lambda z: 0.0, 0.0)


class TestPeriodTerm:
    def test_genus3_term_is_continuous_across_the_cut(self):
        rec = genus3_recipe()
        vals = np.array([assemble_extension(rec, ProductPoint(-x + 1j, -1j))
                         for x in np.linspace(3.0, 4.0, 201)])
        assert vals[0].imag < math.pi < vals[-1].imag
        assert np.max(np.abs(np.diff(vals))) < 0.01

    def test_genus3_holomorphic_at_the_crossing(self):
        rec = genus3_recipe()
        z, w = -2 * math.sqrt(3) + 1j, -1j
        evaluate = lambda p: assemble_extension(rec, p)
        check = antiholomorphic_check(evaluate, [(z, w)], [(z, w)])
        assert check.passed, check.residual
        # and it is a logarithm of det M = ((z + i)/2i)^3, not of one block
        det = ((z - w) / 2j) ** 3
        assert abs(cmath.exp(evaluate(ProductPoint(z, w))) - det) < 1e-13 * abs(det)

    def test_genus_is_the_size_of_tau(self):
        # no genus argument: both blocks of diag(z, 2z) enter the term
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: np.diag([z, 2 * z]),
                              lambda z: 0.0, 0.0)
        p = ProductPoint(0.3 + 1j, -0.2 - 1.5j)
        expected = cmath.log((p.z - p.w) / 2j) + cmath.log((p.z - p.w) / 1j)
        assert abs(assemble_extension(rec, p) - expected) < 1e-14

    def test_indefinite_real_part_is_a_domain_error(self):
        # Re M = diag(1, -1) at (i, -i): det M = -1 is invertible, but M is
        # outside Siegel space
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: np.diag([z, -z]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError, match="positive definite"):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_unknown_f_mode_is_a_domain_error(self):
        with pytest.raises(DomainError, match="f_mode"):
            genus1_recipe(-0.5, f_mode="bogus")

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_is_a_domain_error(self, constant):
        # a nan constant gave a nan extension with no error
        with pytest.raises(DomainError, match="constant"):
            genus1_recipe(constant, f_mode="zero")


class TestRecipeUniqueness:
    def test_diagonal_agreement_implies_global_agreement(self):
        # two independently assembled extensions that agree on the diagonal
        # agree off-diagonal: the fitted coefficients of their difference
        # vanish, and so do pointwise off-diagonal differences
        from holodet.polarization import uniqueness_residual

        rec = genus1_recipe(-0.5, f_mode="eta")
        # assemble_extension takes one point: f1 runs it point by point
        f1 = np.vectorize(lambda z, w: assemble_extension(rec, ProductPoint(z, w)), otypes=[complex])
        f2 = lambda z, w: genus1_extension(ProductPoint(z, w))
        center, radius = 1.4j, 0.25
        assert uniqueness_residual(f1, f2, center, radius, degree=6) < 1e-8
        for off in (0.1, -0.08 + 0.05j):
            z = center + 0.1
            w = np.conj(z) + off
            assert abs(f1(z, w) - f2(z, w)) < 1e-6


class TestGenus1Extension:
    def test_value_at_conjugate_pair(self):
        # (1/2) log(2 pi) + 2 log eta(i), from the high-precision oracle
        val = genus1_extension(ProductPoint(1j, -1j))
        assert abs(val - 0.3915943927068368) < 1e-13

    def test_diagonal_is_real(self):
        for x in (-0.4, 0.0, 0.4):
            for y in (0.8, 1.3, 2.0):
                val = genus1_extension(ProductPoint.diagonal(complex(x, y)))
                assert abs(val.imag) < 1e-12

    def test_constant_against_closed_form(self):
        vals = []
        for x in (-0.3, 0.1, 0.4):
            for y in (0.9, 1.5, 2.0):
                z = complex(x, y)
                vals.append(genus1_extension(ProductPoint.diagonal(z)).real
                            - closed_form_log_det(z))
        assert max(vals) - min(vals) < 1e-9
        assert vals[0] == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_agrees_with_branch_free_product(self):
        p = ProductPoint(0.7 + 1.9j, -1.1 - 0.4j)
        val = genus1_extension(p)
        direct = (-1j * math.pi * (p.z - p.w)) ** 0.5 * cmath.exp(log_eta(p.z)) \
            * np.conj(cmath.exp(log_eta(np.conj(p.w))))
        assert abs(cmath.exp(val) - direct) < 1e-13 * abs(direct)

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            genus1_extension(ProductPoint.diagonal(0.5 + 0j))

    @pytest.mark.parametrize("z, w", [(1e308 + 1j, -1j), (1j, 1e308 - 1j)], ids=["z", "w"])
    def test_overflow_is_a_budget_error(self, z, w):
        # -pi i (z - w) overflows, and the float-complex product made inf + nan i
        with pytest.raises(BudgetError, match="overflows"):
            genus1_extension(ProductPoint(z, w))

    def test_finite_value_next_to_the_overflow(self):
        # (1/2) Log(-pi i (z - w)) with |z - w| = 1e307, plus log_eta(1e307 + i)
        # = log_eta(i) + pi i 1e307/12 (1e307 is an integer) and its conjugate twin at i
        val = genus1_extension(ProductPoint(1e307 + 1j, -1j))
        assert val.real == pytest.approx(0.5 * math.log(math.pi * 1e307)
                                         + 2 * log_eta(1j).real, rel=1e-14)
        assert val.imag == pytest.approx(math.pi * 1e307 / 12 - math.pi / 4, rel=1e-14)


class TestBatchedPoints:
    """ProductPoint and genus1_extension on arrays of points."""

    def test_array_extension_matches_the_pointwise_one(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-3, 3, 60) + 1j * 10.0 ** rng.uniform(-3, 1, 60)
        w = rng.uniform(-3, 3, 60) - 1j * 10.0 ** rng.uniform(-3, 1, 60)
        values = genus1_extension(ProductPoint(z.reshape(6, 10), w.reshape(6, 10)))
        assert values.shape == (6, 10)
        for zi, wi, value in zip(z, w, values.ravel()):
            ref = genus1_extension(ProductPoint(complex(zi), complex(wi)))
            assert abs(value - ref) <= 4e-16 * abs(ref)

    @pytest.mark.parametrize("z, w, message", [
        ((1j, 2j, -1j), (-1j, -1j, -1j), "Im(z) must be positive, got (-0-1j)"),
        ((1j, 2j, 3j), (-1j, 0.5 + 0j, -1j), "Im(w) must be negative, got (0.5+0j)"),
        ((1j, complex("nan+1j")), (-1j, -1j), "finite, got (nan+1j), (-0-1j)"),
    ])
    def test_a_point_off_the_product_is_named(self, z, w, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            ProductPoint(np.array(z), np.array(w))

    def test_shapes_must_agree(self):
        with pytest.raises(DomainError, match="one shape"):
            ProductPoint(np.array([1j, 2j]), np.array([-1j]))

    def test_an_overflowing_point_of_a_batch_is_named(self):
        with pytest.raises(BudgetError, match=re.escape("((1e+308+1j), (-0-1j)) overflows")):
            genus1_extension(ProductPoint(np.array([1j, 1e308 + 1j]), np.array([-1j, -1j])))

    def test_split_h_makes_one_closed_form_call(self, monkeypatch):
        # h used to call closed_form_log_det once per point, 264 times per build
        import holodet.extension as extension

        calls = {"h": 0, "closed_form_log_det": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        split = extension.pluriharmonic_split
        monkeypatch.setattr(extension, "closed_form_log_det",
                            counted("closed_form_log_det", extension.closed_form_log_det))
        monkeypatch.setattr(extension, "pluriharmonic_split",
                            lambda h, c, r: split(counted("h", h), c, r))
        genus1_recipe(-0.5, f_mode="split")
        assert calls["h"] >= 1
        assert calls["closed_form_log_det"] == calls["h"]


def _residual(point, word, evaluate=genus1_extension):
    (check,) = invariance_checks(evaluate, point, [word])
    return check.residual


class TestModularInvariance:
    def test_translation_exact(self):
        assert _residual(ProductPoint(2j, -3j), "T") < 1e-12

    def test_inversion(self):
        assert _residual(ProductPoint(2j, -3j), "S") < 1e-9

    def test_composite_word(self):
        assert _residual(ProductPoint(0.4 + 1.2j, -0.3 - 0.9j), "STS") < 1e-9

    def test_random_words(self):
        rng = np.random.default_rng(11)
        p = ProductPoint(0.2 + 1.4j, -0.5 - 0.8j)
        words = ["".join(rng.choice(["T", "S"], size=int(rng.integers(1, 5)))) for _ in range(5)]
        for check in invariance_checks(genus1_extension, p, words):
            assert check.passed and check.residual < 1e-9, check.name

    def test_unknown_letter_is_a_domain_error(self):
        calls = []
        with pytest.raises(DomainError, match="generator"):
            invariance_checks(lambda p: calls.append(p) or 0j, ProductPoint(1j, -1j), ["T", "TX"])
        assert calls == []  # rejected before anything is evaluated

    def test_word_acts_rightmost_letter_first(self):
        # TS: S then T, (2i, -3i) -> (i/2, -i/3) -> (1 + i/2, 1 - i/3); the base point once
        seen = []
        invariance_checks(lambda p: seen.append((p.z, p.w)) or 0j, ProductPoint(2j, -3j), ["TS", "ST"])
        assert seen[0] == (2j, -3j)
        assert seen[1] == pytest.approx((1 + 0.5j, 1 - 1j / 3))
        assert seen[2] == pytest.approx((-1 / (1 + 2j), -1 / (1 - 3j)))
        assert len(seen) == 3

    def test_perturbed_extension_fails_translation(self):
        # negative control: 1e-6 z breaks T-invariance by 24e-6 in exp(24 L)
        p = ProductPoint(0.2 + 1.3j, -0.4 - 0.9j)
        (check,) = invariance_checks(lambda q: genus1_extension(q) + 1e-6 * q.z, p, ["T"])
        assert check.name == "invariance[T]" and not check.passed
        assert check.residual == pytest.approx(24e-6, rel=1e-3)

    def test_mismatch_past_the_float_range_fails(self):
        # 24 Re(L(gamma p) - L(p)) passes 709 here: cmath.exp raised OverflowError
        p = ProductPoint(0.06 + 2.7e11j, -0.45 - 2.74j)
        (check,) = invariance_checks(genus1_extension, p, ["STTTST"])
        assert check.name == "invariance[STTTST]" and not check.passed
        assert check.residual == math.inf

    def test_tolerance_covers_the_rounding_of_24_l(self):
        # |L| ~ pi y/12 ~ 2.6e9 at height 1e10: the tolerance grows with it
        checks = invariance_checks(genus1_extension, ProductPoint(1e10j, -1j), ["STS", "TTST"])
        low = invariance_checks(genus1_extension, ProductPoint(0.2 + 1.3j, -0.4 - 0.9j), ["STS"])
        assert all(c.passed and c.tolerance > 1e-5 for c in checks)
        assert low[0].tolerance == pytest.approx(1e-9)
