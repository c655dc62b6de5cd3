import cmath
import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holodet.potential_builder as potential_builder
from holodet.errors import DomainError, QuadratureError
from holodet.polymap import PolyMap, random_polymap
from holodet.potential_builder import (
    FIRST_ORDER,
    MAX_ORDER,
    PASS_NODES,
    ClosedHoloForm,
    ConePotentials,
    ProductDomain,
    _coefficient_tail,
    _integrand,
    _cell_sums,
    _legendre_rows,
    check_closed_and_holomorphic,
    cone_potential,
    cone_potentials,
    verify_boundary_vanishing,
    verify_mixed_derivative,
)
from holodet.torus_spectral import _gl_nodes
from holodet.verify import boundary_check, form_contract_checks, mixed_derivative_check
from holodet.wirtinger import NODES, contour

HALF_PLANE_BALLS = ProductDomain(5j, 4.9, -5j, 4.9)


def nodes(Z, W) -> int:
    """The number of points a ``form.coeff`` call takes: the size of the blocks' broadcast shape."""
    return math.prod(np.broadcast_shapes(np.shape(Z)[:-1], np.shape(W)[:-1]))


def constant_form(c=1.0, base_z=1j, base_w=-1j):
    def coeff(Z, W):
        Z, W = np.atleast_2d(Z), np.atleast_2d(W)
        return np.full(np.broadcast_shapes(Z.shape[:-1], W.shape[:-1]) + (1, 1), c, dtype=complex)

    return ClosedHoloForm(1, coeff, base_z, base_w, HALF_PLANE_BALLS)


def pole_form(base_z=1j, base_w=-1j):
    def coeff(Z, W):
        return ((Z[..., 0] - W[..., 0]) ** -2)[..., None, None]

    return ClosedHoloForm(1, coeff, base_z, base_w, HALF_PLANE_BALLS)


def sum_pole_form(base_z, base_w):
    r"""(z + w)^{-2} dz /\ dw on balls of radius 4 around 0: singular on z + w = 0.

    The coefficient refuses points within 1e-3 of its pole, as a catalog
    ``pole_power`` coefficient does.
    """
    def coeff(Z, W):
        d = Z[..., 0] + W[..., 0]
        if (np.abs(d) < 1e-3).any():
            raise QuadratureError("point within 0.001 of a singularity of the form")
        return (d ** -2)[..., None, None]

    dom = ProductDomain(0j, 4.0, 0j, 4.0)
    return ClosedHoloForm(1, coeff, base_z, base_w, dom)


def set_max_order(monkeypatch, cap):
    """Cone cells run at most ``cap`` nodes per axis, and first at min(FIRST_ORDER, cap).

    PASS_NODES rises to cap^2 if need be, so that one cell at the cap still fits one pass.
    """
    monkeypatch.setattr(potential_builder, "MAX_ORDER", cap)
    monkeypatch.setattr(potential_builder, "FIRST_ORDER", min(FIRST_ORDER, cap))
    monkeypatch.setattr(potential_builder, "PASS_NODES", max(PASS_NODES, cap * cap))


def pole_closed_form(z, w, z0=1j, w0=-1j):
    # branch-safe: all four arguments stay in the upper half plane
    return (cmath.log(z - w) - cmath.log(z0 - w) - cmath.log(z - w0) + cmath.log(z0 - w0))


PAIRS = [(2j, -2j), (1 + 1.5j, -0.5 - 1.2j), (0.3 + 0.9j, 0.1 - 0.7j), (-0.8 + 1.1j, 0.6 - 1.4j)]


class TestConePotential:
    def test_constant_form(self):
        q = cone_potential(constant_form(), 2j, -2j)
        assert abs(q - (2j - 1j) * (-2j + 1j)) < 1e-13

    def test_pole_form_matches_log_combination(self):
        form = pole_form()
        for z, w in PAIRS:
            q = cone_potential(form, z, w)
            assert abs(q - pole_closed_form(z, w)) < 1e-13

    def test_exp_of_potential_is_cross_ratio(self):
        form = pole_form()
        for z, w in PAIRS:
            q = cone_potential(form, z, w)
            cross = (z - w) * (1j + 1j) / ((1j - w) * (z + 1j))
            assert abs(cmath.exp(q) - cross) <= 1e-12 * abs(cross)

    def test_mixed_second_synthetic_n2(self):
        g = PolyMap(2, {((2, 0), (3, 0)): 1.0, ((0, 1), (0, 1)): 1.0})
        dom = ProductDomain([0, 0], 1.5, [0, 0], 1.5)
        form = ClosedHoloForm(2, g.mixed_coefficient_evaluator(),
                              [0.1 + 0.1j, 0.05j], [-0.1j, 0.2], dom)
        z = np.array([0.4 + 0.2j, -0.3 + 0.1j])
        w = np.array([0.2 - 0.5j, 0.6j])
        q = cone_potential(form, z, w)
        oracle = g([z, form.base_z, z, form.base_z], [w, w, form.base_w, form.base_w]) @ [1, -1, -1, 1]
        assert abs(q - oracle) < 1e-12

    def test_rejects_point_outside_domain(self):
        with pytest.raises(DomainError):
            cone_potential(pole_form(), 20j, -2j)
        with pytest.raises(DomainError):
            cone_potential(pole_form(), 2j, -20j)

    def test_singularity_on_chain_is_refused(self):
        # the chain from the bases to (2, -2) crosses the singular locus
        # z + w = 0, so the guard or the refinement budget fires
        with pytest.raises(QuadratureError):
            cone_potential(sum_pole_form(1.0 + 0j, 1.0 + 0j), 2.0 + 0j, -2.0 + 0j)

    def test_infinite_target_is_a_domain_error(self):
        with pytest.raises(DomainError, match="w targets must be finite"):
            cone_potentials(pole_form(), [2j], [complex("inf-2j")])
        with pytest.raises(DomainError, match="z targets must be finite"):
            cone_potential(pole_form(), complex("nan"), -2j)


def pole_power_form(c, k, base_z, base_w, seen=None):
    def coeff(Z, W):
        if seen is not None:
            seen.append(nodes(Z, W))
        return (c * (Z[..., 0] - W[..., 0]) ** -k)[..., None, None]

    return ClosedHoloForm(1, coeff, base_z, base_w, HALF_PLANE_BALLS)


#: e^{iA(z - z0)} e^{-iA(w - w0)} along real segments of length 1.5 at this A:
#: its Legendre coefficients are flat to degree about 120, past MAX_ORDER = 64
OSCILLATION = 80.0


def oscillating_form(A=OSCILLATION, seen=None):
    def coeff(Z, W):
        if seen is not None:
            seen.append(nodes(Z, W))
        return np.exp(1j * A * ((Z[..., 0] - 1j) - (W[..., 0] + 1j)))[..., None, None]

    return ClosedHoloForm(1, coeff, 1j, -1j, HALF_PLANE_BALLS)


def pole_power_closed_form(c, k, z, w, z0, w0):
    # G with d_z d_w G = (z - w)^-k; every z - w here lies in the upper half plane
    if k == 2:
        G = lambda a, b: np.log(a - b)
    else:
        G = lambda a, b: -(a - b) ** (2 - k) / ((k - 1) * (k - 2))
    return c * (G(z, w) - G(z0, w) - G(z, w0) + G(z0, w0))


def pole_power_closed_form_mp(c, k, z, w, z0, w0) -> complex:
    """``pole_power_closed_form`` at one target in mpmath at 40 digits, rounded once.

    In double precision the four terms, each of size about 1, can cancel to
    1e-3 and leave the difference a few 1e-16 off, past a cone estimate.
    """
    with mpmath.workdps(40):
        def G(a, b):
            d = mpmath.mpc(a) - mpmath.mpc(b)
            return mpmath.log(d) if k == 2 else -d ** (2 - k) / ((k - 1) * (k - 2))

        return complex(mpmath.mpc(c) * (G(z, w) - G(z0, w) - G(z, w0) + G(z0, w0)))


def pole_grid(rng, k, gap):
    """64 targets on a tilted segment at pole gap ``gap``, with w fixed, and a form."""
    c = 2.0 * cmath.exp(2j * math.pi * rng.random())
    z0, w0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.5)), complex(rng.uniform(-0.3, 0.3), -rng.uniform(0.8, 1.5))
    wy = 0.15 + (gap - 0.3) * rng.random()
    w = complex(rng.uniform(-0.3, 0.3), -wy)
    half = rng.uniform(0.1, 0.6)
    Z = w.real + np.linspace(-half, half, 64) + 1j * (gap - wy)
    return c, z0, w0, Z, np.full(64, w)


class TestBatchedCells:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grids_match_closed_form_and_errors_bound_it(self, k):
        rng = np.random.default_rng(40 + k)
        for gap in (0.35, 0.5, 1.0, 2.5, 6.0):
            c, z0, w0, Z, W = pole_grid(rng, k, gap)
            res = cone_potentials(pole_power_form(c, k, z0, w0), Z, W)
            exact = pole_power_closed_form(c, k, Z, W, z0, w0)
            err = np.abs(res.values - exact)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.all(err <= 1e-12 * scale), (gap, err.max())
            assert np.all(err <= res.errors + 1e-14 * scale), gap
            assert np.all(res.cells == 1), gap

    @pytest.mark.parametrize("n", [64, 128])
    def test_one_rule_per_resolved_target_and_passes_capped(self, n, monkeypatch):
        set_max_order(monkeypatch, n)
        seen, passes = [], []
        real = potential_builder._integrand
        monkeypatch.setattr(potential_builder, "_integrand",
                            lambda form, dz, dw, S, T: passes.append(S.shape) or real(form, dz, dw, S, T))
        # targets from far off the pole to close to it: some need more than the first order
        Z, W = 0.2 + 1j * np.geomspace(0.15, 2.0, 64), np.full(64, 0.1 - 0.15j)
        res = cone_potentials(pole_power_form(1.0, 4, 4j, -1j, seen), Z, W)
        assert np.all(res.cells == 1)
        assert set(res.orders.tolist()) == {FIRST_ORDER, n}
        # nodes evaluated: order^2 per cell, summed over passes of one order each
        assert sum(seen) == sum(cells * order * order for cells, order in passes)
        pass_nodes = potential_builder.PASS_NODES
        assert all(cells <= max(1, pass_nodes // (order * order)) for cells, order in passes)
        assert max(seen) <= pass_nodes
        # every target once at the first order, and the refused ones once more at the cap
        assert sum(seen) == Z.size * FIRST_ORDER ** 2 + np.sum(res.orders == n) * n * n

    def test_one_cell_at_the_cap_fits_one_pass(self):
        assert MAX_ORDER ** 2 <= PASS_NODES

    def test_one_coeff_call_per_pass(self, monkeypatch):
        # a near-pole batch runs at both orders and after splits: every pass
        # evaluates all of its nodes in one form.coeff call
        seen, passes = [], []
        real = potential_builder._integrand
        monkeypatch.setattr(potential_builder, "_integrand",
                            lambda form, dz, dw, S, T: passes.append(S.shape) or real(form, dz, dw, S, T))
        form = sum_pole_form(1 + 0.1j, 1 + 0j)
        form = dataclasses.replace(form, coeff=lambda Z, W, c=form.coeff: seen.append(nodes(Z, W)) or c(Z, W))
        W = np.array([-0.5, -1.0, -2.0, -1.5, -0.2, -0.8, -1.2, -1.9]) + 0j
        res = cone_potentials(form, np.full(W.size, 2 + 0.1j), W)
        assert res.cells.max() > 1 and set(res.orders.tolist()) == {FIRST_ORDER, MAX_ORDER}
        assert seen == [cells * order * order for cells, order in passes]
        assert max(seen) <= PASS_NODES

    def test_target_refused_at_first_order_is_accepted_at_the_cap_on_one_cell(self):
        z, w = 0.2 + 0.15j, 0.1 - 0.15j
        res = cone_potentials(pole_power_form(1.0, 4, 4j, -1j), [z], [w])
        assert res.cells[0] == 1 and res.orders[0] == MAX_ORDER
        exact = pole_power_closed_form(1.0, 4, z, w, 4j, -1j)
        assert abs(res.values[0] - exact) <= 1e-12 * abs(exact)

    def test_cap_runs_before_the_depth_limit_raises(self, monkeypatch):
        # with no subdivision allowed, a cell refused at the first order must
        # still be tried at the cap, as the fixed rule at the cap would be
        monkeypatch.setattr(potential_builder, "MAX_DEPTH", 0)
        z, w = 0.2 + 0.15j, 0.1 - 0.15j
        res = cone_potentials(pole_power_form(1.0, 4, 4j, -1j), [z], [w])
        assert res.cells[0] == 1 and res.orders[0] == MAX_ORDER
        # a cell refused at the cap too needs a split, which depth 0 does not allow
        with pytest.raises(QuadratureError, match="after 0 subdivisions"):
            cone_potentials(oscillating_form(), [1j + 1.5], [-1j - 1.5])

    def test_a_pass_hands_coeff_broadcasting_node_blocks(self, monkeypatch):
        # z nodes vary along axis 1 and w nodes along axis 2: no node is repeated
        shapes, passes = [], []
        real = potential_builder._integrand
        monkeypatch.setattr(potential_builder, "_integrand",
                            lambda form, dz, dw, S, T: passes.append(S.shape) or real(form, dz, dw, S, T))
        for dim, form in ((1, pole_form()), (2, synthetic_form_n2())):
            spied = dataclasses.replace(
                form, coeff=lambda Z, W, c=form.coeff: shapes.append((Z.shape, W.shape)) or c(Z, W))
            shapes.clear(), passes.clear()
            cone_potentials(spied, np.full((3, dim), 0.3 + 0.2j), np.full((3, dim), 0.2 - 0.3j))
            assert passes and shapes == [((cells, n, 1, dim), (cells, 1, n, dim)) for cells, n in passes]

    def test_split_build_runs_its_targets_in_full_passes_of_the_first_order(self, monkeypatch):
        # the split recipe's cone part is one call of 64 + 8 targets at the probe, in 4 passes,
        # every cell accepted at the first order
        import holodet.extension as extension

        form, seen, orders = extension.genus1_pole_form(), [], []
        spied = dataclasses.replace(
            form, coeff=lambda Z, W: seen.append(nodes(Z, W)) or form.coeff(Z, W))
        monkeypatch.setattr(extension, "genus1_pole_form", lambda: spied)
        real = potential_builder._integrand
        monkeypatch.setattr(potential_builder, "_integrand",
                            lambda f, dz, dw, S, T: orders.append(S.shape[1]) or real(f, dz, dw, S, T))
        stages, rule = [], potential_builder._gl_nodes
        monkeypatch.setattr(potential_builder, "_gl_nodes",
                            lambda a, b, n: stages.append(n) or rule(a, b, n))
        extension.genus1_recipe(-0.5, "split")
        targets = 72
        assert len(seen) == len(orders) == -(-targets // (PASS_NODES // FIRST_ORDER ** 2)) == 4
        assert set(orders) == {FIRST_ORDER}
        assert sum(seen) == targets * FIRST_ORDER ** 2
        # the MAX_ORDER stage, left with no cells, runs nothing
        assert stages == [FIRST_ORDER]

    def test_hopeless_form_raises_in_passes_capped_at_pass_nodes(self, monkeypatch):
        # e^{iA((z - i) - (w + i))} at A = 1e5: its phase runs about 1.5e5 * side
        # radians across a cell, so no depth up to 4 resolves it
        monkeypatch.setattr(potential_builder, "MAX_DEPTH", 4)
        seen = []
        with pytest.raises(QuadratureError, match="after 4 subdivisions"):
            cone_potentials(oscillating_form(1e5, seen), [1j + 1.5], [-1j - 1.5])
        assert seen and max(seen) <= PASS_NODES

    def test_non_decaying_integrand_subdivides(self):
        A, dz = OSCILLATION, 1.5
        res = cone_potentials(oscillating_form(), [1j + dz], [-1j - dz])
        assert res.cells[0] > 1
        exact = (cmath.exp(1j * A * dz) - 1) * (cmath.exp(1j * A * dz) - 1) / (A * A)
        # the oscillation cancels |q| down to 3e-5 of the |integrand| mass: absolute bounds
        assert abs(res.values[0] - exact) <= min(1e-12, res.errors[0])

    @pytest.mark.parametrize("n", [FIRST_ORDER, MAX_ORDER])
    def test_cell_sums_do_not_depend_on_the_pass_mates(self, n):
        # every reduction is a product per cell, bit for bit the same in any pass
        rng = np.random.default_rng(n)
        F = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
        alone = [_cell_sums(F[c:c + 1].copy(), *_legendre_rows(n)) for c in range(7)]
        for got, parts in zip(_cell_sums(F, *_legendre_rows(n)), zip(*alone)):
            np.testing.assert_array_equal(got, np.concatenate(parts))

    @pytest.mark.parametrize("n", [5, 16, 20, 33, 64, 100])
    def test_orders_never_exceed_the_cap(self, n, monkeypatch):
        set_max_order(monkeypatch, n)
        Z = np.concatenate([np.array(PAIRS)[:, 0], 0.2 + 1j * np.geomspace(0.15, 2.0, 8)])
        W = np.concatenate([np.array(PAIRS)[:, 1], np.full(8, 0.1 - 0.15j)])
        res = cone_potentials(pole_power_form(1.0, 2, 4j, -1j), Z, W)
        assert set(res.orders.tolist()) <= {min(n, FIRST_ORDER), n}

    def test_refused_first_cell_subdivides(self):
        # the singular line z + w = 0 passes at distance 0.1 through the
        # parameter square: the one cell is refused at both orders and splits
        z0, w0, z, w = 1 + 0.1j, 1 + 0j, 2 + 0.1j, -2 + 0j
        res = cone_potentials(sum_pole_form(z0, w0), [z], [w])
        assert res.cells[0] > 1 and res.orders[0] == MAX_ORDER
        G = lambda a, b: -cmath.log(a + b)  # d_z d_w G = (z + w)^-2; Im(a + b) >= 0 here
        exact = G(z, w) - G(z0, w) - G(z, w0) + G(z0, w0)
        assert abs(res.values[0] - exact) <= 1e-12 * abs(exact)
        assert abs(res.values[0] - exact) <= res.errors[0] + 1e-14 * abs(exact)

    def test_batch_results_do_not_depend_on_the_other_targets(self):
        # along z + w = 0.1i - w: targets accepted at the first order, at the cap
        # on one cell, and after splits, sharing passes in a batch of twelve
        form = sum_pole_form(1 + 0.1j, 1 + 0j)
        W = np.array([-0.5, -1.0, -2.0, -1.5, -0.2, -0.8, -1.2, -1.9, 0.5, -0.6, -1.1, -1.7]) + 0j
        Z = np.full(W.size, 2 + 0.1j)
        single = [cone_potentials(form, Z[k:k + 1], W[k:k + 1]) for k in range(W.size)]
        one = ConePotentials(*(np.concatenate(field) for field in zip(*single)))
        assert set(one.orders[one.cells == 1].tolist()) == {FIRST_ORDER, MAX_ORDER}
        assert one.cells.max() > 1
        for order in (np.arange(W.size), np.arange(W.size)[::-1]):
            batch = cone_potentials(form, Z[order], W[order])
            np.testing.assert_array_equal(batch.cells, one.cells[order])
            np.testing.assert_array_equal(batch.orders, one.orders[order])
            assert np.all(np.abs(batch.values - one.values[order]) <= 1e-15 * np.abs(one.values[order]))
            assert np.all(np.abs(batch.errors - one.errors[order]) <= 1e-15 * one.errors[order])

    @pytest.mark.parametrize("n", [4, 5, 7, 16, 33, 64, 100])
    def test_estimate_for_every_order(self, n, monkeypatch):
        set_max_order(monkeypatch, n)
        # a bilinear potential resolves in one cell at any order
        Z, W = np.array([2j, 1 + 1.5j]), np.array([-2j, -0.5 - 1.2j])
        res = cone_potentials(constant_form(0.7 - 0.2j), Z, W)
        assert np.all(res.cells == 1)
        assert np.allclose(res.values, (0.7 - 0.2j) * (Z - 1j) * (W + 1j), rtol=0, atol=1e-13)
        # one rule on the whole parameter square: its estimate bounds its error on the pole form
        exact = np.array([pole_closed_form(z, w) for z, w in PAIRS])
        Z, W = np.array(PAIRS).T
        xs, ws = _gl_nodes(0.0, 1.0, n)
        S = np.tile(xs, (len(PAIRS), 1))
        F = _integrand(pole_form(), (Z - 1j)[:, None], (W + 1j)[:, None], S, S)
        value = (F * np.outer(ws, ws)).sum(axis=(1, 2))
        tail = _coefficient_tail(_cell_sums(F, *_legendre_rows(n))[2], n)
        assert np.all(np.abs(value - exact) <= tail + 1e-14)
        res = cone_potentials(pole_form(), Z, W)
        assert np.all(np.abs(res.values - exact) <= 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), gap=st.floats(0.35, 6.0), low=st.floats(0.0, 1.0),
           x=st.floats(-0.3, 0.3), half=st.floats(0.05, 0.4), phase=st.floats(0.0, 1.0),
           bz=st.floats(0.8, 1.5), bw=st.floats(0.8, 1.5))
    # a target at the base point z0, where the exact value is 0
    @example(k=2, gap=0.95, low=0.0, x=0.05, half=0.05, phase=0.0, bz=0.8, bw=1.0)
    def test_adaptive_orders_match_a_fixed_64_rule_and_the_closed_form(
            self, k, gap, low, x, half, phase, bz, bw):
        c = 2.0 * cmath.exp(2j * math.pi * phase)
        wy = 0.15 + (gap - 0.35) * low  # Im z = gap - wy stays >= 0.2
        Z = x + np.linspace(-half, half, 8) + 1j * (gap - wy)
        W = np.full(8, complex(-x, -wy))
        z0, w0 = complex(0.1, bz), complex(-0.1, -bw)
        form = pole_power_form(c, k, z0, w0)
        res = cone_potentials(form, Z, W)
        xs, ws = _gl_nodes(0.0, 1.0, 64)
        S = np.tile(xs, (Z.size, 1))
        F = _integrand(form, (Z - z0)[:, None], (W - w0)[:, None], S, S)
        fixed = (F * np.outer(ws, ws)).sum(axis=(1, 2))
        exact = pole_power_closed_form(c, k, Z, W, z0, w0)
        # the closed form's four logs round at about 1e-16 absolute
        assert np.all(np.abs(res.values - fixed) <= 1e-12 * np.abs(exact) + 1e-14)
        assert np.all(np.abs(res.values - exact) <= 1e-12 * np.abs(exact) + 1e-14)
        assert np.all(res.orders <= 64)

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), log_gap=st.floats(math.log(0.002), math.log(6.0)),
           angle=st.floats(0.25 * math.pi, 0.75 * math.pi), phase=st.floats(0.0, 1.0))
    # the aliased cell: error 1.2e-4 against an estimate of 1.3e-12 from the top four coefficients
    @example(k=2, log_gap=math.log(0.002), angle=0.5 * math.pi, phase=0.0)
    @example(k=4, log_gap=math.log(0.012), angle=0.5 * math.pi, phase=0.0)
    # the double-precision closed form is 3.05e-16 off here, the cone's estimate 1.79e-16
    @example(k=2, log_gap=0.6875, angle=1.5, phase=0.0)
    def test_errors_bound_the_closed_form_near_the_pole(self, k, log_gap, angle, phase):
        # z - w = gap e^{i angle}, bases +-i, balls D(+-i, r) with r >= 0.999 just
        # holding the targets: the pole gap on the chain is between 0.7 gap and gap
        gap = math.exp(log_gap)
        c = 2.0 * cmath.exp(2j * math.pi * phase)
        z = 0.5 * gap * cmath.exp(1j * angle)
        w = -z
        radius = max(0.999, abs(z - 1j), abs(w + 1j))
        form = dataclasses.replace(pole_power_form(c, k, 1j, -1j),
                                   domain=ProductDomain(1j, radius, -1j, radius))
        res = cone_potentials(form, [z], [w])
        exact = pole_power_closed_form_mp(c, k, z, w, 1j, -1j)
        assert abs(res.values[0] - exact) <= res.errors[0], (gap, res.cells[0])

    @settings(max_examples=15, deadline=None)
    @given(log_distance=st.floats(math.log(0.005), math.log(0.5)), a=st.floats(1.5, 3.0))
    # the crossing line at distance 0.005: error 2.7e-6 against an estimate of 1.3e-10
    @example(log_distance=math.log(0.005), a=3.0)
    def test_errors_bound_the_closed_form_across_a_crossing_line(self, log_distance, a):
        # z(s) + w(t) = 2 + s - (1 + a) t + i d vanishes nowhere but comes within d
        # of 0 along a line through the parameter square
        d = math.exp(log_distance)
        z0, w0, z, w = complex(1, d), 1 + 0j, complex(2, d), complex(-a, 0)
        res = cone_potentials(sum_pole_form(z0, w0), [z], [w])
        G = lambda p, q: -cmath.log(p + q)  # d_z d_w G = (z + w)^-2; Im(p + q) = d > 0
        exact = G(z, w) - G(z0, w) - G(z, w0) + G(z0, w0)
        assert abs(res.values[0] - exact) <= res.errors[0], (d, res.cells[0])

    @pytest.mark.parametrize("Z, W", [([[2j, 1j]], [-2j]), (2j, -2j), ([2j, 1j], [-2j]),
                                      (np.ones((1, 1, 1)) * 2j, [-2j])])
    def test_wrong_shape_targets_are_domain_errors(self, Z, W):
        with pytest.raises(DomainError, match="shape"):
            cone_potentials(pole_form(), Z, W)

    def test_wrong_shape_point_is_a_domain_error(self):
        with pytest.raises(DomainError, match="C\\^1"):
            cone_potential(pole_form(), [2j, 1j], -2j)

    @pytest.mark.parametrize("dim, base, z_center, w_center", [
        (2, [0.1, 0.1], [0.5], [0, 0]),  # a z ball of C^1 was read as centered at (0.5, 0.5)
        (2, [0.1, 0.1], [0, 0], [0.5]),
        (2, [0.1], [0, 0], [0, 0]),
        (1, 1j, [5j, 0], -5j),
        (1, [1j, 0], 5j, -5j),
    ])
    def test_a_form_refuses_points_of_another_dimension(self, dim, base, z_center, w_center):
        dom = ProductDomain(z_center, 4.9, w_center, 4.9)
        with pytest.raises(DomainError, match=f"bases and ball centers .*C\\^{dim}"):
            ClosedHoloForm(dim, lambda Z, W: pytest.fail("evaluated"), base, base, dom)

    def test_points_of_unequal_sizes_are_named_by_their_sizes(self):
        # numpy's ragged-array text named none of the four points
        dom = ProductDomain([0, 0], 1.5, [0], 1.5)
        with pytest.raises(DomainError) as info:
            ClosedHoloForm(2, lambda Z, W: pytest.fail("evaluated"), [0.1, 0.1], [0.1, 0.1], dom)
        assert str(info.value) == ("bases and ball centers are not points of C^2: "
                                   "got points of sizes 1, 2")

    def test_a_domain_names_the_first_point_outside_its_ball(self):
        dom = ProductDomain(0j, 1.0, 0j, 1.0)
        assert dom.z_center.shape == (1,) and type(dom.z_radius) is float
        inside = np.array([[0.5], [0.5j]])
        dom.require_inside(inside, inside)
        with pytest.raises(DomainError, match=r"^w = 2j outside the declared w-domain$"):
            dom.require_inside(inside, np.array([[0.5], [2j], [3j]]))
        with pytest.raises(DomainError, match=r"^base_z = \(2\+0j\) outside the declared z-domain$"):
            dom.require_inside(np.array([[2.0]]), np.array([[3.0]]), ("base_z", "base_w"))

    @pytest.mark.parametrize("args, message", [
        (([0, [1, 2]], 1.0, 0, 1.0), "z_center is not a complex point: [0, [1, 2]]"),
        ((0, 1.0, "a", 1.0), "w_center is not a complex point: 'a'"),
        ((0, "x", 0, 1.0), "z_radius must be finite and positive, got 'x'"),
        ((0, float("nan"), 0, 1.0), "z_radius must be finite and positive, got nan"),
        ((0, 0.0, 0, 1.0), "z_radius must be finite and positive, got 0.0"),
        ((0, 1.0, 0, -1.0), "w_radius must be finite and positive, got -1.0"),
        ((0, 1.0, 0, math.inf), "w_radius must be finite and positive, got inf"),
    ])
    def test_a_domain_names_a_center_or_radius_it_cannot_hold(self, args, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ProductDomain(*args)

    def test_a_form_refuses_a_center_that_is_not_finite(self):
        dom = ProductDomain(complex("nan"), 4.9, -5j, 4.9)
        with pytest.raises(DomainError, match="bases and ball centers must be finite"):
            ClosedHoloForm(1, lambda Z, W: pytest.fail("evaluated"), 1j, -1j, dom)


class TestBoundaryVanishing:
    def test_constant_form(self):
        res = verify_boundary_vanishing(constant_form(), PAIRS)
        assert res.shape == (2 * len(PAIRS),) and res.max() < 1e-14

    def test_pole_form(self):
        res = verify_boundary_vanishing(pole_form(), PAIRS)
        assert res.max() < 1e-10

    def test_mixed_second_synthetic(self):
        g = PolyMap(2, {((1, 1), (2, 0)): 0.7 - 0.2j, ((0, 2), (1, 1)): 1.3j})
        dom = ProductDomain([0, 0], 1.5, [0, 0], 1.5)
        form = ClosedHoloForm(2, g.mixed_coefficient_evaluator(), [0.1, 0.2j], [0.3, -0.1j], dom)
        pairs = [(np.array([0.4, 0.5j]), np.array([0.2j, -0.3])),
                 (np.array([-0.5j, 0.1]), np.array([0.6, 0.2]))]
        res = verify_boundary_vanishing(form, pairs)
        assert res.max() < 1e-10


class TestMixedDerivative:
    def test_constant_form(self):
        res, _ = verify_mixed_derivative(constant_form(), [(1 + 1.2j, -0.4 - 0.9j)])
        assert float(res.max()) < 1e-11

    def test_pole_form_at_reference_point(self):
        res, _ = verify_mixed_derivative(pole_form(), [(2j, -2j)])
        # Omega(2i, -2i) = (4i)^{-2} = -1/16
        assert float(res[0, 0, 0]) < 1e-11

    def test_detects_closedness_violation(self):
        # a closed corruption would be faithfully reproduced by the cone
        # potential; only a non-closed one breaks d_z d_w q = Omega.  The
        # residual is about 0.1 of the amplitude, so 1e-9 needs a tolerance
        # below 1e-10
        g = PolyMap(2, {((2, 0), (3, 0)): 1.0, ((0, 1), (0, 1)): 1.0})
        inner = g.mixed_coefficient_evaluator()
        dom = ProductDomain([0, 0], 1.5, [0, 0], 1.5)
        pairs = [(np.array([0.3, 0.2j]), np.array([0.25j, -0.2]))]
        for amplitude in (0.8, 1e-9):
            def corrupted(Z, W):
                out = inner(Z, W)
                out[..., 0, 1] += amplitude * Z[..., 1]
                return out

            form = ClosedHoloForm(2, corrupted, [0.1 + 0.1j, 0.05j], [-0.1j, 0.2], dom)
            check = mixed_derivative_check(form, pairs)
            assert not check.passed and check.residual > 0.1 * amplitude, (amplitude, check)
        # the floor: the uncorrupted form passes
        form = ClosedHoloForm(2, inner, [0.1 + 0.1j, 0.05j], [-0.1j, 0.2], dom)
        assert mixed_derivative_check(form, pairs).passed

    def test_stencil_domain_guard(self):
        form = pole_form()
        edge = 5j + 4.9j  # on the boundary of the z-ball: stencil pokes out
        with pytest.raises(DomainError):
            verify_mixed_derivative(form, [(edge, -2j)])

    def test_base_point_gauge_invariance(self):
        # moving the bases changes q by F(z) + G(w) only: same mixed derivative
        a, _ = verify_mixed_derivative(pole_form(1j, -1j), [(1 + 1.4j, -0.7 - 1.1j)])
        b, _ = verify_mixed_derivative(pole_form(0.5 + 2j, -0.3 - 1.5j), [(1 + 1.4j, -0.7 - 1.1j)])
        assert float(a.max()) < 1e-11 and float(b.max()) < 1e-11

    # ids: the dimension alone for one pair, with "-3pairs" for three
    @pytest.mark.parametrize("dim, K", [(1, 1), (2, 1), (3, 1), (1, 3), (2, 3), (3, 3)],
                             ids=["1", "2", "3", "1-3pairs", "2-3pairs", "3-3pairs"])
    def test_eight_batched_calls_for_every_dimension(self, dim, K, monkeypatch):
        calls = []
        real = potential_builder.cone_potentials
        monkeypatch.setattr(potential_builder, "cone_potentials",
                            lambda form, Z, W: calls.append(len(Z)) or real(form, Z, W))
        g = random_polymap(dim, degree=3, n_terms=6, rng=np.random.default_rng(dim))
        dom = ProductDomain(np.zeros(dim, complex), 1.2, np.zeros(dim, complex), 1.2)
        form = ClosedHoloForm(dim, g.mixed_coefficient_evaluator(),
                              np.full(dim, 0.1 + 0.1j), np.full(dim, -0.1j), dom)
        pairs = [(np.full(dim, 0.4 + 0.2j) - 0.1 * m, np.full(dim, -0.3 + 0.3j) + 0.1j * m)
                 for m in range(K)]
        res, _ = verify_mixed_derivative(form, pairs)
        assert res.shape == (K, dim, dim) and float(res.max()) < 1e-11
        assert calls == [K * dim * dim * NODES ** 2]


class TestClosedAndHolomorphic:
    def test_mixed_second_forms_pass(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3):
            g = random_polymap(dim, degree=4, n_terms=8, rng=rng)
            dom = ProductDomain(np.zeros(dim, complex), 1.2,
                                         np.zeros(dim, complex), 1.2)
            form = ClosedHoloForm(dim, g.mixed_coefficient_evaluator(),
                                  np.full(dim, 0.1 + 0.1j), np.full(dim, -0.1j), dom)
            pairs = [(np.full(dim, 0.4 + 0.2j), np.full(dim, -0.3 + 0.3j))]
            closed, anti, rule = check_closed_and_holomorphic(form, pairs)
            assert closed <= rule.tolerance and anti <= rule.tolerance, (dim, closed, anti)

    def test_exponential_diagonal_fails_closedness(self):
        # Omega_ij = delta_ij exp(z.w): d_{z^1} Omega_22 = w^1 e^{z.w} != 0 = d_{z^2} Omega_12
        def coeff(Z, W):
            e = np.exp(np.sum(Z * W, axis=-1))
            out = np.zeros(e.shape + (2, 2), complex)
            out[..., 0, 0] = e
            out[..., 1, 1] = e
            return out

        dom = ProductDomain([0, 0], 1.5, [0, 0], 1.5)
        form = ClosedHoloForm(2, coeff, [0.1, 0.1], [0.1, 0.1], dom)
        z = np.array([0.3 + 0.1j, 0.2])
        w = np.array([0.4, -0.2j])
        closed, _, rule = check_closed_and_holomorphic(form, [(z, w)])
        assert closed > rule.tolerance
        # hand check of the violated pair
        expected = abs(w[0] * np.exp(np.sum(z * w)))
        assert closed == pytest.approx(expected, rel=1e-6)

    def test_pole_form_passes(self):
        closed, anti, rule = check_closed_and_holomorphic(pole_form(), PAIRS[:2])
        # n=1 closedness is vacuous; holomorphy holds
        assert closed <= rule.tolerance and anti <= rule.tolerance

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sixteen_batched_calls_for_every_dimension(self, dim, K):
        calls = []
        g = random_polymap(dim, degree=3, n_terms=6, rng=np.random.default_rng(dim))
        inner = g.mixed_coefficient_evaluator()

        def coeff(Z, W):
            calls.append(nodes(Z, W))
            return inner(Z, W)

        dom = ProductDomain(np.zeros(dim, complex), 1.2, np.zeros(dim, complex), 1.2)
        form = ClosedHoloForm(dim, coeff, np.full(dim, 0.1 + 0.1j), np.full(dim, -0.1j), dom)
        pairs = [(np.full(dim, 0.4 + 0.2j) - 0.1 * m, np.full(dim, -0.3 + 0.3j) + 0.1j * m)
                 for m in range(K)]
        closed, anti, rule = check_closed_and_holomorphic(form, pairs)
        assert closed <= rule.tolerance and anti <= rule.tolerance
        assert calls == [K * dim * NODES] * 2

    def test_targets_are_checked_before_the_form_is_evaluated(self):
        def coeff(Z, W):
            raise AssertionError("evaluated")

        form = ClosedHoloForm(2, coeff, [0.1, 0.1], [0.1, 0.1],
                              ProductDomain([0, 0], 1.5, [0, 0], 1.5))
        for pairs, match in (([([0.1, 0.2], [complex("inf"), 0])], "w targets must be finite"),
                             ([([0.1, 0.2], [0.1])], "shape"),
                             ([([0.1, 0.2], [0.1, 0.2]), ([0.1], [0.1, 0.2])], "z targets")):
            for verifier in (check_closed_and_holomorphic, verify_mixed_derivative,
                             verify_boundary_vanishing):
                with pytest.raises(DomainError, match=match):
                    verifier(form, pairs)

    def test_an_empty_pair_list_is_a_domain_error(self):
        g = PolyMap(2, {((1, 0), (0, 1)): 1.0})
        form2 = ClosedHoloForm(2, g.mixed_coefficient_evaluator(), [0.1, 0.1], [0.1, 0.1],
                               ProductDomain([0, 0], 1.5, [0, 0], 1.5))
        for form in (pole_form(), form2):
            for check in (check_closed_and_holomorphic, verify_mixed_derivative,
                          verify_boundary_vanishing, boundary_check, mixed_derivative_check,
                          lambda f, pairs: form_contract_checks([(f, pairs)])):
                with pytest.raises(DomainError, match="no \\(z, w\\) pairs"):
                    check(form, [])

    def test_an_empty_case_list_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no \\(form, pairs\\) cases"):
            form_contract_checks([])


class TestHolomorphyOfPotential:
    def test_antiholomorphic_residual_small(self):
        form = pole_form()
        z, w = 0.4 + 1.1j, -0.2 - 0.8j
        fz = lambda p: cone_potentials(form, p, np.full(p.shape, w)).values
        fw = lambda p: cone_potentials(form, np.full(p.shape, z), p).values
        assert abs(contour(fz, z).modes[-1]) < 1e-11
        assert abs(contour(fw, w).modes[-1]) < 1e-11


class TestSharedMechanisms:
    def test_gauss_legendre_rule_computed_once_per_order(self, monkeypatch):
        from holodet.torus_spectral import zeta_log_det

        calls = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or real(n))
        # the second target is refused at the first order and runs at the largest
        forms = ((pole_form(), 0.3 + 0.9j, -0.2 - 1.1j),
                 (pole_power_form(1.0, 4, 4j, -1j), 0.2 + 0.15j, 0.1 - 0.15j))

        def work():
            orders = [int(cone_potentials(form, [z], [w]).orders[0]) for form, z, w in forms]
            zeta_log_det(0.3 + 1.1j)
            return orders

        # warm call: each order is computed at most once
        assert work() == [FIRST_ORDER, MAX_ORDER]
        assert len(calls) == len(set(calls))
        calls.clear()
        work()
        assert calls == []


def synthetic_form_n2():
    g = PolyMap(2, {((2, 0), (3, 0)): 1.0, ((0, 1), (0, 1)): 1.0})
    dom = ProductDomain([0, 0], 1.5, [0, 0], 1.5)
    return ClosedHoloForm(2, g.mixed_coefficient_evaluator(), [0.1 + 0.1j, 0.05j], [-0.1j, 0.2], dom)


def node_blocks(rng, dim, cells=3, n=5):
    """A z block (cells, n, 1, dim), a w block (cells, 1, n, dim), and both repeated to stacked points."""
    Z = rng.uniform(-1, 1, (cells, n, 1, dim)) + 1j * rng.uniform(-1, 1, (cells, n, 1, dim))
    W = rng.uniform(-1, 1, (cells, 1, n, dim)) + 1j * rng.uniform(-1, 1, (cells, 1, n, dim))
    stacked = [np.repeat(P, n, axis=a).reshape(-1, dim) for P, a in ((Z, 2), (W, 1))]
    return Z, W, stacked


class TestBroadcastBlocks:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3), degree=st.integers(0, 5), n_terms=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_polymap_gives_the_stacked_bits(self, dim, degree, n_terms, seed):
        rng = np.random.default_rng(seed)
        g = random_polymap(dim, degree, n_terms, rng)
        Z, W, (Zs, Ws) = node_blocks(rng, dim)
        for evaluator in (g, g.mixed_coefficient_evaluator()):
            got = evaluator(Z, W)
            assert got.shape == (3, 5, 5) + evaluator.shape
            np.testing.assert_array_equal(got.reshape((-1,) + evaluator.shape), evaluator(Zs, Ws))

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_pole_power_gives_the_stacked_bits(self, k):
        from holodet.catalog import FormCatalogEntry

        entry = FormCatalogEntry("p", "pole_power", 1, (1j,), (-1j,), coefficient=0.3 - 1.1j,
                                 exponent=k, domain_z_center=(0j,), domain_z_radius=10.0,
                                 domain_w_center=(0j,), domain_w_radius=10.0)
        coeff = entry.build().coeff
        Z, W, (Zs, Ws) = node_blocks(np.random.default_rng(k), 1)
        got = coeff(Z + 2j, W - 2j)
        assert got.shape == (3, 5, 5, 1, 1)
        np.testing.assert_array_equal(got.reshape(-1, 1, 1), coeff(Zs + 2j, Ws - 2j))
        # a single point is still one (1, 1, 1) block
        assert coeff([2j], [-2j]).shape == coeff(2j, -2j).shape == (1, 1, 1)


def mixed_second_reference(g: PolyMap, z, w):
    """d^2 g / dz^i dw^j at one point, summed term by term in plain Python."""
    n = g.dim
    out = np.zeros((n, n), dtype=complex)
    for (alpha, beta), c in g.terms.items():
        for i in range(n):
            for j in range(n):
                a, b = list(alpha), list(beta)
                value = c * a[i] * b[j]
                a[i] -= 1
                b[j] -= 1
                if value:
                    out[i, j] += value * math.prod(z[k] ** a[k] * w[k] ** b[k] for k in range(n))
    return out


class TestPolyMap:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 3), degree=st.integers(0, 5), n_terms=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_matrix_map_matches_a_per_term_reference(self, dim, degree, n_terms, seed):
        rng = np.random.default_rng(seed)
        g = random_polymap(dim, degree, n_terms, rng)
        Z = rng.uniform(-1, 1, (4, dim)) + 1j * rng.uniform(-1, 1, (4, dim))
        W = rng.uniform(-1, 1, (4, dim)) + 1j * rng.uniform(-1, 1, (4, dim))
        got = g.mixed_coefficient_evaluator()(Z, W)
        assert got.shape == (4, dim, dim)
        for m in range(4):
            ref = mixed_second_reference(g, Z[m], W[m])
            assert np.allclose(got[m], ref, rtol=1e-13, atol=1e-13)

    def test_synthetic_contracts_make_one_cone_call_per_form(self, monkeypatch):
        import holodet.verify as verify

        calls = []
        real = potential_builder.cone_potentials

        def counted(form, Z, W):
            calls.append(len(Z))
            return real(form, Z, W)

        monkeypatch.setattr(potential_builder, "cone_potentials", counted)
        monkeypatch.setattr(verify, "cone_potentials", counted)
        checks = verify.check_synthetic_form_contracts()
        assert all(c.passed for c in checks)
        assert calls == [2] * 5
