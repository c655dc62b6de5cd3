"""Integer powers of complex arrays go through ``polymap.int_power``: products, not pow.

The helper is checked against mpmath at 40 digits, alone and where it is
used: the catalog's ``pole_power`` coefficient and ``PolyMap`` monomials.
Bounds are relative errors in units of eps = 2^-52, one per rounded
operation plus one.  An ``ast`` guard keeps every other ``**`` in the cone
layers to a real power, a square or a power of a Python scalar, so an
array raised to an integer power by numpy's pow fails here.
"""

import ast
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import holodet
from holodet.catalog import POLE_GUARD, FormCatalogEntry
from holodet.errors import QuadratureError
from holodet.polymap import PolyMap, int_power
from holodet.potential_builder import check_closed_and_holomorphic

SRC = Path(holodet.__file__).parent
EPS = np.finfo(float).eps


def box(rng, m):
    return rng.uniform(-3, 3, m) + 1j * rng.uniform(-3, 3, m)


def relative_error(got, exact) -> float:
    """Worst |got - exact| / |exact| over the points, in mpmath."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpc(g) - e) / abs(e)) for g, e in zip(got, exact))


def power_mp(x, e):
    with mpmath.workdps(40):
        return [mpmath.mpc(v) ** e for v in x]


def pole_power_coeff(c, k):
    entry = FormCatalogEntry("p", "pole_power", 1, (1j,), (-1j,), coefficient=c, exponent=k,
                             domain_z_center=(0j,), domain_z_radius=10.0,
                             domain_w_center=(0j,), domain_w_radius=10.0)
    return entry.build().coeff


@pytest.mark.parametrize("e", range(-6, 7))
def test_int_power_matches_mpmath(e):
    x = box(np.random.default_rng(e + 6), 1000)
    assert relative_error(int_power(x, e), power_mp(x, e)) <= (abs(e) + 1) * EPS


def test_int_power_keeps_shape_and_dtype():
    x = box(np.random.default_rng(0), 12).reshape(3, 4)
    for e in (-3, 0, 1, 4):
        got = int_power(x, e)
        assert got.shape == x.shape and got.dtype == complex
    assert np.all(int_power(x, 0) == 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pole_power_coeff_matches_mpmath(k):
    rng = np.random.default_rng(k)
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    Z, W = box(rng, 500), box(rng, 500)
    got = pole_power_coeff(c, k)(Z[:, None], W[:, None])
    assert got.shape == (500, 1, 1)
    with mpmath.workdps(40):
        exact = [mpmath.mpc(c) * (mpmath.mpc(z) - mpmath.mpc(w)) ** -k for z, w in zip(Z, W)]
    # the difference z - w rounds once, and its error grows k-fold in the power
    assert relative_error(got[:, 0, 0], exact) <= (k + 2) * EPS


@pytest.mark.parametrize("a", [3, 4, 5])
@pytest.mark.parametrize("b", [0, 3, 5])
def test_polymap_monomials_match_mpmath(a, b):
    rng = np.random.default_rng(10 * a + b)
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    Z, W = box(rng, 300), box(rng, 300)
    got = PolyMap(2, {((a, 1), (b, 0)): c})(np.stack([Z, W], 1), np.stack([W, Z], 1))
    with mpmath.workdps(40):
        exact = [mpmath.mpc(c) * mpmath.mpc(z) ** a * mpmath.mpc(w) * mpmath.mpc(w) ** b
                 for z, w in zip(Z, W)]
    assert relative_error(got, exact) <= (a + b + 2) * EPS


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pole_power_at_the_guard_raises_no_warning(k):
    d = POLE_GUARD * np.exp(2j * np.pi * np.arange(16) / 16)
    coeff = pole_power_coeff(1.0, k)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = coeff(d[:, None], np.zeros((16, 1), complex))
    assert np.all(np.isfinite(got))
    assert np.allclose(got[:, 0, 0] * d ** k, 1.0, rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pole_power_inside_the_guard_raises_a_quadrature_error(k):
    d = 0.999 * POLE_GUARD * np.exp(2j * np.pi * np.arange(16) / 16)
    coeff = pole_power_coeff(1.0, k)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for point in (d, d[:1], np.r_[1.0, d[5]]):
            with pytest.raises(QuadratureError, match="within 0.001 of a singularity"):
                coeff(point[:, None], np.zeros((point.size, 1), complex))


def test_pole_power_refusal_in_a_contour_check_names_a_point():
    # the contour circle of radius 0.02 around z = 0.3 passes through z = w = 0.32:
    # no quadrature runs there, so the message names a point, not a node
    entry = FormCatalogEntry("p", "pole_power", 1, (1j,), (-1j,), coefficient=1.0, exponent=2,
                             domain_z_center=(0j,), domain_z_radius=10.0,
                             domain_w_center=(0j,), domain_w_radius=10.0)
    with pytest.raises(QuadratureError, match="^point within 0.001 of a singularity of the form$"):
        check_closed_and_holomorphic(entry.build(), [(0.3 + 0j, 0.32 + 0j)])


# --- the guard ---------------------------------------------------------------

GUARDED = ("catalog", "polymap", "potential_builder")


def integer_powers(source: str) -> list[str]:
    """Each ``**`` of the source that may raise an array to an integer power other than 0, 1, 2.

    Allowed: an exponent that is a float, 0, 1 or 2, or a true quotient (a
    real power), and any exponent of a numeric literal base (a Python scalar
    such as 0.5 ** depth).  Everything else, a negated or a named exponent
    included, is flagged unless it lies inside ``int_power``.
    """
    found = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == "int_power":
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow):
                e = child.right
                if isinstance(e, ast.Constant):
                    flagged = isinstance(e.value, int) and not 0 <= e.value <= 2
                elif isinstance(e, ast.BinOp) and isinstance(e.op, ast.Div):
                    flagged = False
                else:
                    flagged = not isinstance(child.left, ast.Constant)
                if flagged:
                    found.append(ast.unparse(child))
            walk(child)

    walk(ast.parse(source))
    return found


@pytest.mark.parametrize("module", GUARDED)
def test_cone_layers_take_integer_powers_by_int_power(module):
    assert integer_powers((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_guard_sees_integer_powers():
    source = ("a = d ** -2\nb = d ** (-k)\nc = d ** 3\nf = p[:, k] ** e\ng = d ** (e - 1)\n"
              "ok = (r ** 2, 0.5 ** depth, r ** (2 / n), x ** 0.5)\n"
              "def int_power(x, e):\n    return x ** e\n")
    assert integer_powers(source) == ["d ** (-2)", "d ** (-k)", "d ** 3", "p[:, k] ** e",
                                      "d ** (e - 1)"]
