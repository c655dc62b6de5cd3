import ast
import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodet import extension
from holodet.errors import BudgetError, DomainError, NotPluriharmonicError
from holodet.extension import (
    F_MODES,
    ExtensionRecipe,
    ProductPoint,
    assemble_extension,
    genus1_extension,
    genus1_pole_form,
    genus1_recipe,
    pluriharmonic_split,
    symmetrized_evaluator,
)
from holodet.polarization import disc_samples
from holodet.potential_builder import cone_potential, cone_potentials
from holodet.special_functions import log_eta
from holodet.torus_spectral import closed_form_log_det
from holodet.verify import (
    DIAGONAL_CONSTANT,
    _cone_test_pairs,
    antiholomorphic_check,
    extend_checks,
    invariance_checks,
)
from holodet.wirtinger import contour

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _matrices(z, rows):
    """The matrix with these entries at every point of z: shape z.shape + (g, g)."""
    entries = [[np.broadcast_to(entry, z.shape) for entry in row] for row in rows]
    return np.moveaxis(np.array(entries, dtype=complex), (0, 1), (-2, -1))


def _nan_right(z):
    """nan where Re z > 1, else 0."""
    return np.where(np.real(z) > 1.0, np.nan, 0.0)


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
            # d_z d_zbar of qt(z, zbar) is the mixed mode of qt at (z, zbar)
            lap = contour(qt, z, np.conj(z)).modes[1, 1]
            assert abs(lap - (z - np.conj(z)) ** -2) < 1e-11

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
        # d_z d_zbar log|z - zbar| at i is d_z d_w Log(z - w) = (z - w)^-2 at (i, -i): -1/4
        rule = contour(lambda z, w: np.log(z - w), 1j, -1j)
        assert abs(rule.modes[1, 1] - (-0.25)) < 1e-11

    def test_the_pole_form_is_built_once_with_read_only_arrays(self):
        form = genus1_pole_form()
        assert genus1_pole_form() is form
        for array in (form.base_z, form.base_w, form.domain.z_center, form.domain.w_center):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert form.base_z.tolist() == [1j] and form.domain.z_center.tolist() == [5j]


class TestPluriharmonicSplit:
    def test_quadratic(self):
        f = pluriharmonic_split((lambda z: (z * z).real,), 1j, radius=0.95)
        for z in (0.3 + 1.2j, 1j, -0.4 + 0.7j, 0.5 + 1.5j):
            assert abs(f(z) - z * z / 2) < 1e-10  # imaginary constant is 0 here
            assert abs((z * z).real - 2 * f(z).real) < 1e-10

    def test_constant(self):
        f = pluriharmonic_split((lambda z: np.full(z.shape, 3.5),), 1j, radius=0.95)
        assert abs(f(0.4 + 0.9j) - 1.75) < 1e-12

    def test_log_modulus(self):
        h = lambda z: np.log(np.abs(z - 5.0) ** 2)
        f = pluriharmonic_split((h,), 1j, radius=0.95)
        for z in (0.6 + 1.1j, -0.3 + 0.5j):
            assert abs(h(z) - 2 * f(z).real) < 1e-10
            # f = log(z - 5) + const: compare via exponentials
            ratio = cmath.exp(f(z) - f(1j)) - (z - 5.0) / (1j - 5.0)
            assert abs(ratio) < 1e-10

    def test_holomorphy_of_f(self):
        f = pluriharmonic_split((lambda z: np.exp(z).real,), 1j, radius=0.95)
        assert np.abs(contour(f, np.array([1j + 0.3, 1j - 0.2 + 0.4j])).modes[-1]).max() < 1e-11

    def test_a_point_and_an_array_agree(self):
        # a point is a 0-d array: it takes the array's power table and gives a 0-d value
        f = pluriharmonic_split((lambda z: np.exp(z).real,), 1j, radius=0.95)
        zs = 1j + 0.9 * np.linspace(0.0, 1.0, 13) * np.exp(1j * np.linspace(0.0, 6.0, 13))
        values = f(zs)
        for z, value in zip(zs, values):
            point = f(complex(z))
            assert np.ndim(point) == 0
            assert abs(point - value) <= 1e-14

    def test_h_samples_per_evaluation(self):
        # the probe samples 64 boundary and 8 check points in one batched call, and
        # the rest of the 256 circle in one more; evaluating f never samples h
        calls = []
        h = lambda z: calls.append(z.shape) or (z * z).real
        f = pluriharmonic_split((h,), 1j, radius=0.95)
        assert calls == [(72,), (192,)]
        calls.clear()
        f(0.3 + 1.2j)
        assert calls == []

    def test_rejects_non_pluriharmonic(self):
        with pytest.raises(NotPluriharmonicError):
            pluriharmonic_split((lambda z: np.abs(z) ** 2,), 1j, radius=0.95)

    def test_rejects_points_outside_the_disc(self):
        f = pluriharmonic_split((lambda z: (z * z).real,), 1j, radius=0.95)
        f(1j + 0.95)  # the closed disc
        for z in (1j + 0.96, 2.5j, 0.01j):
            with pytest.raises(DomainError):
                f(z)

    @pytest.mark.parametrize("center, radius", [(1j, 1.0), (1j, 0.0), (-1j, 0.5), (complex("nan+1j"), 0.5)])
    def test_rejects_discs_not_in_the_half_plane(self, center, radius):
        with pytest.raises(DomainError):
            pluriharmonic_split((lambda z: np.zeros(z.shape),), center, radius)

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
        f = pluriharmonic_split((h,), c, r)
        for s, t in probes:
            z = c + s * r * cmath.exp(1j * t)
            assert abs(h(z) - 2.0 * f(z).real) < 1e-10
        with pytest.raises(DomainError):
            f(c + 1.01 * r * cmath.exp(1j * probes[0][1]))

    @pytest.mark.parametrize("radius, sizes", [(0.9, [72, 192]), (0.95, [72, 192, 256]),
                                               (0.99, [72, 192, 256, 512])])
    def test_samples_double_while_the_tail_is_too_large(self, radius, sizes):
        # Re((z - i)/r)^8 on D(i, r): N = 256 resolves r = 0.9, r = 0.95 needs
        # N = 512 and r = 0.99 N = 1024; after the probe and the rest of the 256
        # circle, each doubling samples the midpoints only
        calls = []
        h = lambda z: calls.append(np.size(z)) or (((z - 1j) / radius) ** 8).real
        f = pluriharmonic_split((h,), 1j, radius)
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
            pluriharmonic_split((h,), 1j, 0.95)
        assert sum(calls) == SPLIT_MAX_SAMPLES + 8

    @pytest.mark.parametrize("bad, match", [
        (lambda z: np.full(z.shape, np.nan), r"h\(1\.95\d*j\) = nan is not finite"),
        (lambda z: np.full(z.shape, np.inf), r"h\(1\.95\d*j\) = inf is not finite"),
        (lambda z: np.zeros(z.size - 1), r"72 real values, got float64 \(71,\)"),
        (lambda z: 2.0, r"72 real values, got float64 \(\)"),
        (lambda z: z * z, r"72 real values, got complex128 \(72,\)"),
    ], ids=["nan", "inf", "short", "scalar", "complex"])
    def test_bad_h_values_are_refused_after_one_call(self, bad, match):
        # a nan h was called four more times and ended in a BudgetError on a nan
        # tail; inf warned in the FFT; a wrong shape leaked numpy's errors.  The
        # 72-point probe refuses them all
        calls = []
        with pytest.raises(DomainError, match=match):
            pluriharmonic_split((lambda z: calls.append(z.size) or bad(z),), 1j, 0.95)
        assert calls == [72]

    def test_bad_midpoint_values_are_refused_before_another_call(self):
        # Re((z - i)/0.95)^8 needs one doubling after the 256 circle; its midpoints come back nan
        calls = []

        def h(z):
            calls.append(z.size)
            return (((z - 1j) / 0.95) ** 8).real * (np.nan if len(calls) > 2 else 1.0)

        with pytest.raises(DomainError, match="is not finite"):
            pluriharmonic_split((h,), 1j, 0.95)
        assert calls == [72, 192, 256]

    def test_each_call_samples_the_points_its_circle_adds(self):
        # Re((z - i)/0.99)^8 refines to N = 1024 in four calls; their boundary points are
        # disjoint, and together they are the 1024-point circle, bit for bit, each call
        # in FFT order: the circle of 64, then what the circles of 256, 512, 1024 add
        a = 1j * math.sqrt(1.0 - 0.99 ** 2)
        rho = (1.0 - a.imag) / 0.99
        calls = []
        h = lambda z: calls.append(z.copy()) or (((z - 1j) / 0.99) ** 8).real
        pluriharmonic_split((h,), 1j, 0.99)
        phi = rho * np.exp(2j * math.pi * np.arange(1024) / 1024)
        index = {p.tobytes(): k for k, p in enumerate((a - a.conjugate() * phi) / (1.0 - phi))}
        seen = [[index[p.tobytes()] for p in z] for z in (calls[0][:64], *calls[1:])]
        assert sorted(sum(seen, [])) == list(range(1024))
        grid = lambda n: set(range(0, 1024, 1024 // n))
        added = [grid(64), grid(256) - grid(64), grid(512) - grid(256), grid(1024) - grid(512)]
        assert seen == [sorted(k) for k in added]

    def test_the_tail_tolerance_scales_with_h(self):
        # h = 1e10 + Re z^2 is pluriharmonic: the rounding of 1e10 leaves a tail of about 7e-7
        # at 256 samples, above 1e-8 but within 1e-8 max|h|, so the 256 circle builds it
        calls = []
        h = lambda z: calls.append(np.size(z)) or 1e10 + (z * z).real
        f = pluriharmonic_split((h,), 1j, 0.95)
        assert calls == [72, 192]
        for z in (1j, 1j + 0.5, 1j + 0.9 * cmath.exp(2j)):
            assert abs(h(z) - 2.0 * f(z).real) < 1e-5  # a few ulps of 1e10

    def test_parts_split_as_their_sum(self):
        # the split is linear: f of two parts is f of their sum
        h1, h2 = (lambda z: (z * z).real), (lambda z: np.log(np.abs(z - 5.0) ** 2))
        f = pluriharmonic_split((h1, h2), 1j, 0.95)
        g = pluriharmonic_split((lambda z: h1(z) + h2(z),), 1j, 0.95)
        zs = 1j + 0.95 * np.linspace(0.0, 1.0, 11) * np.exp(1j * np.linspace(0.0, 6.0, 11))
        assert np.max(np.abs(f(zs) - g(zs))) <= 1e-13

    def test_a_part_at_rounding_level_stops_at_the_probe(self):
        # Re (phi/rho)^3 is mode 3 of the boundary circle and nothing else: one call of 72
        # points, while Re z^2 beside it goes on to the rest of the 256 circle
        a = 1j * math.sqrt(1.0 - 0.95 ** 2)
        rho = (1.0 - a.imag) / 0.95
        cubic = lambda z: (((z - a) / (z - a.conjugate()) / rho) ** 3).real
        square = lambda z: (z * z).real
        calls = {"cubic": [], "square": []}
        f = pluriharmonic_split((lambda z: calls["cubic"].append(z.size) or cubic(z),
                                 lambda z: calls["square"].append(z.size) or square(z)), 1j, 0.95)
        assert calls == {"cubic": [72], "square": [72, 192]}
        for s, t in ((0.0, 0.0), (0.5, 1.0), (0.9, 2.5), (1.0, 4.0)):
            z = 1j + s * 0.95 * cmath.exp(1j * t)
            assert abs(cubic(z) + square(z) - 2.0 * f(z).real) < 1e-12

    def test_only_the_sum_need_be_pluriharmonic(self):
        # |z - i|^2 is r^2 on the boundary and stops at the probe; neither part is
        # pluriharmonic on its own, but their sum Re z^2 is
        parts = (lambda z: np.abs(z - 1j) ** 2, lambda z: (z * z).real - np.abs(z - 1j) ** 2)
        f = pluriharmonic_split(parts, 1j, 0.95)
        for z in (0.3 + 1.2j, 1j, -0.4 + 0.7j, 0.5 + 1.5j):
            assert abs((z * z).real - 2.0 * f(z).real) < 1e-10
        for part in parts:
            with pytest.raises(NotPluriharmonicError):
                pluriharmonic_split((part,), 1j, 0.95)

    def test_a_sum_that_is_not_pluriharmonic_is_refused(self):
        with pytest.raises(NotPluriharmonicError):
            pluriharmonic_split((lambda z: (z * z).real, lambda z: np.abs(z) ** 2), 1j, 0.95)

    @pytest.mark.parametrize("parts", [(), []], ids=["tuple", "list"])
    def test_no_parts_is_a_domain_error(self, parts):
        with pytest.raises(DomainError, match="at least one part"):
            pluriharmonic_split(parts, 1j, 0.95)

    @pytest.mark.parametrize("z, w", [(0.15j, -0.15j), (9.5j, -0.6j), (0.3 + 0.3j, -9.5j),
                                      (2 + 3j, -1 - 4j), (-0.3629 + 0.7727j, -0.4177 - 2.4941j)])
    def test_genus1_split_recipe_matches_eta_oracle(self, z, w):
        rec = genus1_recipe(-0.5, "split")
        p = ProductPoint(z, w)
        assert abs(assemble_extension(rec, p) - (genus1_extension(p) - DIAGONAL_CONSTANT)) < 1e-10


class TestAssembleExtension:
    def test_identity_period_map_at_conjugate_pair(self):
        rec = ExtensionRecipe(q_tilde=lambda z, w: 0.0, period_map=lambda z: z[..., None, None],
                              f=lambda z: 0.0, genus_constant=0.0)
        # matrix term log((i - (-i))/2i) = log 1 = 0
        assert abs(assemble_extension(rec, ProductPoint(1j, -1j))) < 1e-15

    def test_reduces_to_log_matrix_term(self):
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: z[..., None, None], lambda z: 0.0, 0.0)
        p = ProductPoint(0.7 + 1.3j, -0.2 - 0.6j)
        expected = cmath.log((p.z - p.w) / 2j)
        assert abs(assemble_extension(rec, p) - expected) < 1e-15
        fz = lambda a: assemble_extension(rec, ProductPoint(a, np.full(a.shape, p.w)))
        assert abs(contour(fz, p.z).modes[-1]) < 1e-11

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

    @pytest.mark.parametrize("q_tilde, f, constant", [
        (lambda z, w: 0.0, _nan_right, 0.0),
        (lambda z, w: _nan_right(z), lambda z: 0.0, 1.0),
    ], ids=["f", "q_tilde"])
    def test_a_non_finite_ingredient_names_its_point(self, q_tilde, f, constant):
        # nan where Re z > 1: the array point (i, -i), (1.5 + i, -i) gave [0, nan - 0.64i]
        rec = ExtensionRecipe(q_tilde, lambda z: z[..., None, None], f, constant)
        z, w = np.array([1j, 1.5 + 1j]), np.array([-1j, -1j])
        with pytest.raises(BudgetError, match=re.escape("at ((1.5+1j), (-0-1j)) is not finite")):
            assemble_extension(rec, ProductPoint(z, w))
        assert assemble_extension(rec, ProductPoint(z[:1], w[:1])) == [0.0]

    @pytest.mark.parametrize("z, w", [(1j, -1j), (np.array([1j, 2j]), np.array([-1j, -2j]))],
                             ids=["point", "array"])
    @pytest.mark.parametrize("shape", [lambda s: (3,), lambda s: s + (1,)], ids=["3", "S+1"])
    def test_ingredient_values_of_the_wrong_shape_are_domain_errors(self, z, w, shape):
        # values of shape (3,) or S + (1,) for points of shape S leaked numpy's ValueError
        point = ProductPoint(z, w)
        period = lambda z: z[..., None, None]
        rec = ExtensionRecipe(lambda z, w: 0.0, period, lambda z: np.zeros(shape(z.shape)), 0.0)
        stack = (2, *point.z.shape)
        with pytest.raises(DomainError, match=re.escape(
                f"f must map points of shape {stack} to values of shape {stack} or (), "
                f"got shape {shape(stack)}")):
            assemble_extension(rec, point)
        rec = ExtensionRecipe(lambda z, w: np.zeros(shape(z.shape)), period, lambda z: 0.0, 1.0)
        with pytest.raises(DomainError, match=re.escape(
                f"q_tilde must map points of shape {point.z.shape} to values of shape "
                f"{point.z.shape}, got shape {shape(point.z.shape)}")):
            assemble_extension(rec, point)

    def test_split_recipe_reproduces_its_diagonal(self):
        rec = genus1_recipe(-0.5, f_mode="split")
        z = 0.4 + 1.2j
        val = assemble_extension(rec, ProductPoint.diagonal(z))
        assert abs(val - closed_form_log_det(z)) < 1e-8

    def test_rejects_asymmetric_period_map(self):
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: _matrices(z, [[z, 1.0], [0.0, z]]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_rejects_singular_matrix(self):
        # tau_22 constant and real makes the second diagonal entry vanish
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: _matrices(z, [[z, 0.0], [0.0, 3.0]]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError, match="Siegel"):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_small_period_matrix_difference_is_accepted(self):
        # tau(z) = 1e-4 z I_3 at (i, -i): M = 1e-4 I_3, det M = 1e-12 and log det M = 3 log 1e-4
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: 1e-4 * z[..., None, None] * np.eye(3),
                              lambda z: 0.0, 0.0)
        assert assemble_extension(rec, ProductPoint(1j, -1j)) == pytest.approx(3 * math.log(1e-4),
                                                                               rel=1e-14)

    def test_synthetic_genus2_holomorphy(self):
        rec = ExtensionRecipe(lambda z, w: 0.0,
                              lambda z: _matrices(z, [[2 * z, 0.3 * z], [0.3 * z, 3 * z + 1j]]),
                              lambda z: 0.1 * z * z, 0.0)
        p = ProductPoint(0.5 + 1.4j, -0.6 - 1.1j)
        fz = lambda a: assemble_extension(rec, ProductPoint(a, np.full(a.shape, p.w)))
        fw = lambda a: assemble_extension(rec, ProductPoint(np.full(a.shape, p.z), a))
        assert abs(contour(fz, p.z).modes[-1]) < 1e-11
        assert abs(contour(fw, p.w).modes[-1]) < 1e-11
        # diagonal realness: Im is constant (here zero) on the diagonal
        for z in (1j, 0.3 + 0.9j):
            val = assemble_extension(rec, ProductPoint.diagonal(z))
            assert abs(val.imag) < 1e-12


def genus3_recipe():
    # tau(z) = z I + 0.01 J (J all ones): at wbar = i, M = (z + i)/2i I, and
    # along z = -x + i, arg det M = 3 arctan(x/2) passes pi at x = 2 sqrt(3)
    return ExtensionRecipe(lambda z, w: 0.0,
                           lambda z: z[..., None, None] * np.eye(3) + 0.01 * np.ones((3, 3)),
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
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: _matrices(z, [[z, 0.0], [0.0, 2 * z]]),
                              lambda z: 0.0, 0.0)
        p = ProductPoint(0.3 + 1j, -0.2 - 1.5j)
        expected = cmath.log((p.z - p.w) / 2j) + cmath.log((p.z - p.w) / 1j)
        assert abs(assemble_extension(rec, p) - expected) < 1e-14

    def test_indefinite_real_part_is_a_domain_error(self):
        # Re M = diag(1, -1) at (i, -i): det M = -1 is invertible, but M is
        # outside Siegel space
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: _matrices(z, [[z, 0.0], [0.0, -z]]),
                              lambda z: 0.0, 0.0)
        with pytest.raises(DomainError, match="positive definite"):
            assemble_extension(rec, ProductPoint(1j, -1j))

    def test_a_period_map_of_one_point_is_a_domain_error(self):
        # tau maps points of shape S to S + (g, g); [[z]] puts the points' axes last
        rec = ExtensionRecipe(lambda z, w: 0.0, lambda z: [[z]], lambda z: 0.0, 0.0)
        with pytest.raises(DomainError, match=re.escape("shape (2,) to square matrices")):
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
        f1 = lambda z, w: assemble_extension(rec, ProductPoint(z, w))
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

    def test_a_point_is_a_0d_array_point(self):
        # a point takes the array path: its value is the array's at that index, and its
        # overflow is typed and named as an array's
        p = ProductPoint(0.7 + 1.9j, -1.1 - 0.4j)
        assert p.z.shape == p.w.shape == ()
        value = genus1_extension(p)
        assert np.ndim(value) == 0
        assert value == genus1_extension(ProductPoint(p.z[None], p.w[None]))[0]
        with pytest.raises(BudgetError, match=re.escape("at ((1e+308+1j), (-0-1j)) overflows")):
            genus1_extension(ProductPoint(1e308 + 1j, -1j))


def _stacked_read(point):
    """genus1_extension from one log_eta call on z and every wbar, copies included."""
    z, w = point.z, point.w
    eta_z, eta_wbar = log_eta(np.stack([z, np.conj(w)]))
    return 0.5 * np.log(-1j * math.pi * (z - w)) + eta_z + np.conj(eta_wbar)


_DISC = disc_samples(0.1 + 0.05j, 0.01, 162).reshape(9, 18)
_OFF = (0.2 * np.exp(1j * np.arange(1, 163)) - 0.3j).reshape(9, 18)  # Im < 0


class TestBatchedPoints:
    """ProductPoint and genus1_extension on arrays of points."""

    @pytest.mark.parametrize("point, size", [
        pytest.param(ProductPoint.diagonal(0.3 + 0.02j), 1, id="0d-diagonal"),
        pytest.param(ProductPoint(0.3 + 0.02j, -1.1 - 0.4j), 2, id="0d-off-diagonal"),
        pytest.param(ProductPoint.diagonal(_DISC), 162, id="diagonal"),
        pytest.param(ProductPoint(_DISC, _DISC.conj() + _OFF), 324, id="off-diagonal"),
        pytest.param(ProductPoint(_DISC, _DISC.conj() + _OFF * (np.arange(18) % 2)), 243,
                     id="mixed"),
    ])
    def test_each_distinct_point_is_read_once(self, point, size, monkeypatch):
        sizes = []
        monkeypatch.setattr(extension, "log_eta", lambda z: sizes.append(z.size) or log_eta(z))
        value = genus1_extension(point)
        assert sizes == [size]
        reference = _stacked_read(point)
        assert np.shape(value) == np.shape(reference) == point.z.shape
        assert np.asarray(value).tobytes() == np.asarray(reference).tobytes()

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

    @pytest.mark.parametrize("f_mode", F_MODES)
    def test_an_array_point_is_assembled_in_one_call_of_each_ingredient(self, f_mode):
        rec = genus1_recipe(1.0 if f_mode == "eta2" else -0.5, f_mode)
        calls = []

        def counted(name, func):
            return lambda *args: calls.append(name) or func(*args)

        batched = dataclasses.replace(rec, **{name: counted(name, getattr(rec, name))
                                              for name in ("q_tilde", "period_map", "f")})
        rng = np.random.default_rng(7)
        z = rng.uniform(-0.5, 0.5, (6, 10)) + 1j * rng.uniform(0.6, 2.5, (6, 10))
        w = rng.uniform(-0.5, 0.5, (6, 10)) - 1j * rng.uniform(0.6, 2.5, (6, 10))
        values = assemble_extension(batched, ProductPoint(z, w))
        assert sorted(calls) == ["f", "period_map", "q_tilde"]
        assert values.shape == (6, 10)
        ref = [assemble_extension(rec, ProductPoint(zi, wi)) for zi, wi in zip(z.flat, w.flat)]
        assert np.max(np.abs(values.ravel() - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("sign, message", [
        (1, "tau(z) at ((1.5+1j), (1.5-2j)) is not symmetric"),
        (-1, "at ((1.5+1j), (1.5-2j)) is not positive definite"),
    ], ids=["asymmetric", "indefinite"])
    def test_a_bad_period_matrix_names_its_point(self, sign, message):
        # Re z > 1 moves tau out of Siegel space: asymmetric with sign 1, indefinite with -1
        def period_map(z):
            moved = z.real > 1.0
            return _matrices(z, [[z, np.where(moved & (sign > 0), 1.0, 0.0)],
                                 [0.0, np.where(moved & (sign < 0), -z, z)]])

        rec = ExtensionRecipe(lambda z, w: 0.0, period_map, lambda z: 0.0, 0.0)
        z = np.array([1j, 1.5 + 1j, 0.5 + 2j, 2.5 + 1j])
        w = np.array([-1j, 1.5 - 2j, 0.5 - 1j, 2.5 - 1j])
        with pytest.raises(DomainError, match=re.escape(message)):
            assemble_extension(rec, ProductPoint(z, w))
        assert np.all(np.isfinite(assemble_extension(rec, ProductPoint(z[::2], w[::2]))))

    def test_split_h_makes_one_closed_form_call(self, monkeypatch):
        # h used to call closed_form_log_det once per point, 264 times per build;
        # its closed-form part makes one call per step, the probe and the rest
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
                            lambda parts, c, r: split((counted("h", parts[0]), *parts[1:]), c, r))
        genus1_recipe(-0.5, f_mode="split")
        assert calls["h"] == 2
        assert calls["closed_form_log_det"] == calls["h"]


def test_the_split_build_samples_the_cone_part_at_the_probe_only(monkeypatch):
    # the cone part is at rounding level at the probe: one cone call of 64 + 8 targets,
    # while the closed-form part takes the probe and the rest of the 256 circle
    sizes = {"cone_potentials": [], "closed_form_log_det": []}
    cone, closed = extension.cone_potentials, extension.closed_form_log_det
    monkeypatch.setattr(extension, "cone_potentials",
                        lambda form, Z, W: sizes["cone_potentials"].append(len(Z)) or cone(form, Z, W))
    monkeypatch.setattr(extension, "closed_form_log_det",
                        lambda Z: sizes["closed_form_log_det"].append(np.size(Z)) or closed(Z))
    genus1_recipe(-0.5, "split")
    assert sizes == {"cone_potentials": [72], "closed_form_log_det": [72, 192]}


def _scalar_branches(tree) -> list[str]:
    """Each isinstance test on an ndarray and each import of ``numbers`` in a module."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            if len(node.args) == 2 and "ndarray" in ast.unparse(node.args[1]):
                sites.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            sites += [f"import {a.name}" for a in node.names if a.name == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            sites.append("from numbers import")
    return sites


def test_extension_has_one_array_path():
    # a point of H x Hbar is a 0-d array, so no function of extension.py keeps a scalar twin
    with open(extension.__file__, encoding="utf-8") as fh:
        assert _scalar_branches(ast.parse(fh.read())) == []
    twin = "import numbers\nif not isinstance(z, np.ndarray):\n    pass\n"
    assert sorted(_scalar_branches(ast.parse(twin))) == ["import numbers", "isinstance(z, np.ndarray)"]


def _split_rule(tree) -> dict:
    """The parameters of each ``circle``, the ``sample`` call sites, the while loops and the
    nested functions of each ``pluriharmonic_split`` in a module."""
    out = {"circle": [], "sample": 0, "while": 0, "nested": []}
    for split in ast.walk(tree):
        if not (isinstance(split, ast.FunctionDef) and split.name == "pluriharmonic_split"):
            continue
        for node in ast.walk(split):
            if isinstance(node, ast.FunctionDef) and node is not split:
                out["nested"].append(node.name)
                if node.name == "circle":
                    out["circle"].append([a.arg for a in (*node.args.args, *node.args.kwonlyargs)])
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sample":
                out["sample"] += 1
            elif isinstance(node, ast.While):
                out["while"] += 1
    return out


def test_the_split_refines_by_one_rule():
    # one loop refines a part on nested circles: no fill to SPLIT_SAMPLES beside a
    # doubling at half-step offsets, and f itself sums the series at c and the inner points
    with open(extension.__file__, encoding="utf-8") as fh:
        rule = _split_rule(ast.parse(fh.read()))
    assert rule == {"circle": [["n"]], "sample": 2, "while": 1,
                    "nested": ["from_phi", "circle", "sample", "resolve", "f"]}
    twin = ("def pluriharmonic_split(parts):\n"
            "    def circle(n, offset=0.0): pass\n"
            "    def series(z): pass\n"
            "    sample(h, probe)\n"
            "    if tail: sample(h, rest)\n"
            "    while tail: sample(h, mid)\n")
    assert _split_rule(ast.parse(twin)) == {"circle": [["n", "offset"]], "sample": 3, "while": 1,
                                            "nested": ["circle", "series"]}


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

    @pytest.mark.parametrize("check", [lambda e, p: invariance_checks(e, p, ["T"]),
                                       lambda e, p: extend_checks(e, p, "invariance")],
                             ids=["invariance_checks", "extend_checks"])
    def test_an_array_point_is_refused_before_evaluating(self, check):
        # an array point leaked numpy's "truth value of an array ... is ambiguous"
        calls = []
        p = ProductPoint(np.array([0.2 + 1.3j, 1j]), np.array([-0.4 - 0.9j, -2j]))
        with pytest.raises(DomainError, match=re.escape(
                "invariance checks one point (z, w), got points of shape (2,)")):
            check(lambda q: calls.append(q) or genus1_extension(q), p)
        assert calls == []

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


class TestAntiholomorphicCheck:
    def test_a_conjugate_term_in_either_block_fails(self):
        # negative control at verify-all's pairs: 1e-9 conj(z) has d/dzbar = 1e-9
        pairs = _cone_test_pairs(4)
        for term in (lambda p: np.conj(p.z), lambda p: np.conj(p.w)):
            check = antiholomorphic_check(lambda p: genus1_extension(p) + 1e-9 * term(p),
                                          pairs, pairs)
            assert not check.passed
            assert check.residual == pytest.approx(1e-9, rel=1e-4)

    @pytest.mark.parametrize("height", [1e6, 1e8])
    def test_tolerance_covers_the_rounding_of_l(self, height):
        # |L| ~ pi y/6: the tolerance carries its rounding over r, and stays near 1e-11 at y = 1
        (check,) = extend_checks(genus1_extension, ProductPoint(0.3 + 1j * height, -1j),
                                 "holomorphy")
        (low,) = extend_checks(genus1_extension, ProductPoint(0.3 + 1j, -1j), "holomorphy")
        assert check.passed and check.tolerance > 1e-15 * height
        assert low.passed and low.tolerance < 2e-11

    def test_an_array_point_is_refused_before_evaluating(self):
        # the holomorphy check of an array point paired z and w of different points,
        # and refused the pairing as "Im(w) must be negative, got (0.2+2j)"
        calls = []
        p = ProductPoint(np.array([0.3 + 1j, 2j]), np.array([-1j, -2j]))
        with pytest.raises(DomainError, match=re.escape(
                "holomorphy checks one point (z, w), got points of shape (2,)")):
            extend_checks(lambda q: calls.append(q) or genus1_extension(q), p, "holomorphy")
        assert calls == []
