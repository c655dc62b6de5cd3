"""Holomorphic extensions off the diagonal of the complexified half plane.

The genus-1 model: the parameter space is H, its complexification is
H x Hbar with coordinates (z, w), and the original space sits inside as the
totally real diagonal {w = conj(z)}.  This module provides

* ``symmetrized_evaluator``: the real-on-diagonal symmetrization of a
  holomorphic potential, q~(z, w) = (q(z, w) + conj(q(wbar, zbar))) / 2;
* ``pluriharmonic_split``: reconstruction of a holomorphic f with
  h = f + conj(f) from a batched pluriharmonic h on a disc, by the Schwarz
  formula: one FFT of h sampled on the boundary circle of a Cayley coordinate;
* ``ExtensionRecipe`` / ``assemble_extension``: the assembled extension
  C * q~(z, w) + log det((tau(z) - conj(tau(wbar)))/2i) + f(z) + conj(f(wbar));
* ``genus1_extension``: the explicit eta-function extension
  log(-pi*i*(z - w))^(1/2) + log eta(z) + conj(log eta(wbar)), whose
  diagonal restriction is log(2 pi y)^(1/2) |eta(z)|^2 -- real; log eta is
  ``special_functions.log_eta``, the library's one eta path.

The period term.  With M = (tau(z) - conj(tau(wbar)))/2i, Re M equals
(Im tau(z) + Im tau(wbar))/2, which is positive definite when tau(z) and
tau(wbar) lie in Siegel space.  Then every eigenvalue mu_k of M has
Re mu_k > 0, so sum_k Log mu_k with the principal Log is a continuous
logarithm of the holomorphic det M, hence holomorphic, for every genus g.
The principal Log of det M itself is not: arg det M ranges over
(-g pi/2, g pi/2) and for g >= 3 crosses the cut.  In genus 1 the one
eigenvalue is (z - w)/2i, whose real part Im(z - w)/2 is positive on
H x Hbar; likewise -pi*i*(z - w) in the eta extension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import builtin_catalog
from .errors import BudgetError, DomainError, NotPluriharmonicError
from .potential_builder import (  # noqa: F401 -- bench/tests looks cone_potential up here
    ClosedHoloForm,
    cone_potential,
    cone_potentials,
)
from .special_functions import log_eta
from .torus_spectral import closed_form_log_det

TWO_PI = 2.0 * math.pi

#: Boundary samples of h per Schwarz split; f keeps the first N/2 coefficients.
SPLIT_SAMPLES = 256
#: N doubles from SPLIT_SAMPLES while the tail certificate fails, up to this.
SPLIT_MAX_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
class ProductPoint:
    """A point (z, w) of the complexified model H x Hbar: both finite, Im(z) > 0 > Im(w).

    z and w are complex numbers or, when either is an ndarray, complex
    arrays of one shape holding a point of H x Hbar at each index; the
    DomainError names the first point off it.
    """

    z: complex
    w: complex

    def __post_init__(self):
        z, w = self.z, self.w
        if not isinstance(z, np.ndarray) and not isinstance(w, np.ndarray):
            z, w = complex(z), complex(w)
            _require_product_point(z, w)
        else:
            z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
            if z.shape != w.shape:
                raise DomainError(f"z and w must have one shape, got {z.shape} and {w.shape}")
            bad = ~(np.isfinite(z) & np.isfinite(w) & (z.imag > 0.0) & (w.imag < 0.0))
            if bad.any():
                i = np.argmax(bad.ravel())
                _require_product_point(complex(z.ravel()[i]), complex(w.ravel()[i]))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @classmethod
    def diagonal(cls, z: complex) -> "ProductPoint":
        z = complex(z)
        return cls(z, z.conjugate())


def _require_product_point(z: complex, w: complex) -> None:
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise DomainError(f"z and w must be finite, got {z!r}, {w!r}")
    if not z.imag > 0.0:
        raise DomainError(f"Im(z) must be positive, got {z!r}")
    if not w.imag < 0.0:
        raise DomainError(f"Im(w) must be negative, got {w!r}")


def symmetrized_evaluator(q: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """q~(z, w) = (q(z, w) + conj(q(wbar, zbar))) / 2, real on the diagonal w = zbar.

    ``q`` is batched: given 1-D arrays Z and W of target pairs it returns
    their potentials.  q~ at scalar or array points (z, w) takes both halves
    from one call of q over the stacked targets.
    """

    def q_tilde(z, w):
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        halves = np.asarray(q(np.concatenate([z.ravel(), w.conj().ravel()]),
                              np.concatenate([w.ravel(), z.conj().ravel()])))
        return (0.5 * (halves[:z.size] + halves[z.size:].conj())).reshape(z.shape)[()]

    return q_tilde


def genus1_pole_form() -> ClosedHoloForm:
    r"""The model form (z - w)^{-2} dz /\ dw: the catalog entry ``wp_genus1``.

    Bases (i, -i); domain: balls of radius 4.9 around +/- 5i, which cover
    the working strip 0.1 < |Im| < 9.9 of the half planes while staying off
    the real axis.
    """
    return builtin_catalog()["wp_genus1"].build()


def pluriharmonic_split(h: Callable[[np.ndarray], np.ndarray], center: complex,
                        radius: float) -> Callable[[complex], complex]:
    """Holomorphic f with h = 2 Re f on the disc D = D(c, r) in H: the Schwarz formula.

    ``h`` is batched: given an array of points it returns their real values.
    The Cayley coordinate phi(z) = (z - a)/(z - conj(a)), with
    a = Re c + i sqrt(Im c^2 - r^2), maps D onto |phi| <= rho.  h is sampled
    at N = SPLIT_SAMPLES points of the boundary equally spaced in phi and at
    8 points of |phi| = rho/2, in one call; H = rfft(samples)/N gives
    f = H_0/2 + sum_{n=1}^{N/2-1} H_n (phi/rho)^n (the trapezoidal rule),
    shifted so that Im f(c) = 0.  While the top 16 |H_n| sum above 1e-8, N
    doubles (one more call of h, at the midpoints) up to SPLIT_MAX_SAMPLES,
    and past it the build raises BudgetError.  It raises
    NotPluriharmonicError when |h - 2 Re f| > 1e-8 max(1, max|h|) at the 8
    inner points.  f raises DomainError outside the closed disc.
    """
    c, r = complex(center), float(radius)
    if not (cmath.isfinite(c) and 0.0 < r < c.imag):
        raise DomainError(f"split disc D({c!r}, {r!r}) must be a disc in the upper half plane")
    a = complex(c.real, math.sqrt(c.imag ** 2 - r ** 2))
    rho = (c.imag - a.imag) / r

    def from_phi(p):
        return (a - a.conjugate() * p) / (1.0 - p)

    def circle(n, offset=0.0):
        return rho * np.exp(TWO_PI * 1j * (np.arange(n) + offset) / n)

    n = SPLIT_SAMPLES
    inner = from_phi(0.5 * circle(8))
    values = np.asarray(h(np.concatenate([from_phi(circle(n)), inner])), dtype=float)
    samples, h_inner = values[:n], values[n:]
    while True:
        coeffs = np.fft.rfft(samples)[: n // 2] / n
        tail = float(np.sum(np.abs(coeffs[-16:])))
        if tail <= 1e-8:
            break
        if n >= SPLIT_MAX_SAMPLES:
            raise BudgetError(f"Schwarz split tail {tail:.3e} exceeds 1e-8 on D({c!r}, {r!r}) "
                              f"with {n} samples")
        mid = np.asarray(h(from_phi(circle(n, 0.5))), dtype=float)
        samples = np.stack([samples, mid], axis=1).ravel()
        n *= 2
    coeffs[0] *= 0.5

    def series(z):
        return np.polynomial.polynomial.polyval((z - a) / (z - a.conjugate()) / rho, coeffs)

    coeffs[0] -= 1j * series(c).imag

    def f(z: complex) -> complex:
        z = complex(z)
        if not abs(z - c) <= r * (1 + 1e-12):
            raise DomainError(f"z = {z!r} outside the split disc D({c!r}, {r!r})")
        return complex(series(z))

    tol = 1e-8 * max(1.0, float(np.max(np.abs(samples))))
    res = float(np.max(np.abs(h_inner - 2.0 * series(inner).real)))
    if res > tol:
        raise NotPluriharmonicError(f"pluriharmonicity residual {res:.3e} exceeds {tol:.3e}")
    return f


@dataclass(frozen=True, eq=False)
class ExtensionRecipe:
    """Ingredients of an assembled holomorphic extension.

    ``q_tilde``: symmetrized potential evaluator on the product domain;
    ``period_map``: holomorphic map to symmetric g x g matrices in Siegel
    space, its size g being the genus; ``f``: holomorphic function of the
    first block; ``genus_constant``: the prefactor of q_tilde (an input,
    never computed here).
    """

    q_tilde: Callable
    period_map: Callable
    f: Callable
    genus_constant: float


def _log_det_term(recipe: ExtensionRecipe, z, wbar) -> complex:
    """log det M = sum_k Log mu_k over the eigenvalues mu_k of M = (tau(z) - conj(tau(wbar)))/2i."""
    tau_z = np.atleast_2d(np.asarray(recipe.period_map(z), dtype=complex))
    tau_w = np.atleast_2d(np.asarray(recipe.period_map(wbar), dtype=complex))
    for name, tau in (("tau(z)", tau_z), ("tau(wbar)", tau_w)):
        sym = float(np.max(np.abs(tau - tau.T)))
        if sym > 1e-12 * (1.0 + float(np.max(np.abs(tau)))):
            raise DomainError(f"{name} is not symmetric: residual {sym:.3e}")
    mat = (tau_z - np.conj(tau_w)) / 2j
    if not np.linalg.eigvalsh(mat.real)[0] > 0.0:
        raise DomainError("Re of the period-matrix difference is not positive definite; "
                          "outside Siegel space")
    mu = np.linalg.eigvals(mat)
    if abs(np.prod(mu)) <= 1e-12:
        raise DomainError("period-matrix difference is not invertible; outside the extension domain")
    logs = [cmath.log(m) for m in mu]
    return sum(logs[1:], logs[0])  # in genus 1 exactly Log M_00


def assemble_extension(recipe: ExtensionRecipe, point: ProductPoint) -> complex:
    """C * q~(z,w) + log det((tau(z) - conj(tau(wbar)))/2i) + f(z) + conj(f(wbar))."""
    z, w, wbar = point.z, point.w, point.w.conjugate()
    value = recipe.genus_constant * recipe.q_tilde(z, w) if recipe.genus_constant != 0 else 0.0
    value = value + _log_det_term(recipe, z, wbar)
    value = value + recipe.f(z) + np.conj(recipe.f(wbar))
    return complex(value)


def genus1_extension(point: ProductPoint):
    """Eta-function extension (1/2) Log(-pi i (z-w)) + log_eta(z) + conj(log_eta(wbar)).

    ``ProductPoint`` keeps Im z > 0 > Im w, so -pi*i*(z - w) has positive real
    part and the principal logarithm is continuous everywhere it is used; on
    the diagonal w = zbar the value is log((2 pi y)^(1/2) |eta(z)|^2), real.
    At an array point the values come from one ``log_eta`` call on z and wbar.
    """
    z, w = point.z, point.w
    if not isinstance(z, np.ndarray):
        log, eta_z, eta_wbar = cmath.log, log_eta(z), log_eta(np.conj(w))
    else:
        log, (eta_z, eta_wbar) = np.log, log_eta(np.stack([z, np.conj(w)]))
    with np.errstate(all="ignore"):
        value = 0.5 * log(-1j * math.pi * (z - w)) + eta_z + np.conj(eta_wbar)
    bad = ~np.isfinite(value)
    if bad.any():
        i = np.argmax(bad)
        raise BudgetError(f"genus1_extension at ({complex(np.ravel(z)[i])!r}, "
                          f"{complex(np.ravel(w)[i])!r}) overflows")
    return value


# --- ready-made genus-1 recipes ---------------------------------------------


def genus1_recipe(constant: float, f_mode: str) -> ExtensionRecipe:
    """Assemble a genus-1 recipe around the cone potential of (z-w)^{-2}.

    ``f_mode``:
      * "zero"  -- f = 0;
      * "eta"   -- f = log(2 pi)/4 + log(2)/2 + log_eta(z) - Log(z+i)/2,
                   the analytic f matching the eta closed form at C = -1/2;
      * "eta2"  -- f = 2 log_eta(z) - log 2 + Log(z+i), matching the
                   spectral determinant at C = 1;
      * "split" -- f reconstructed by ``pluriharmonic_split`` on the form's
                   z-ball from the closed-form log det minus C q~(z, zbar)
                   and log(Im tau).

    A non-finite ``constant`` raises DomainError.
    """
    if not math.isfinite(constant):
        raise DomainError(f"genus constant must be finite, got {constant!r}")
    form = genus1_pole_form()
    q_tilde = symmetrized_evaluator(lambda Z, W: cone_potentials(form, Z, W).values)
    period = lambda z: np.array([[z]], dtype=complex)

    if f_mode == "zero":
        f = lambda z: 0.0 + 0.0j
    elif f_mode == "eta":
        f = lambda z: (0.25 * math.log(TWO_PI) + 0.5 * math.log(2.0)
                       + log_eta(z) - 0.5 * cmath.log(z + 1j))
    elif f_mode == "eta2":
        f = lambda z: 2.0 * log_eta(z) - math.log(2.0) + cmath.log(z + 1j)
    elif f_mode == "split":
        def h(Z: np.ndarray) -> np.ndarray:
            # on the diagonal Re q~(z, zbar) = Re q(z, zbar): one batched cone
            # potential of SPLIT_SAMPLES + 8 targets
            qt = cone_potentials(form, Z, Z.conj()).values
            return closed_form_log_det(Z) - constant * qt.real - np.log(Z.imag)

        f = pluriharmonic_split(h, complex(form.domain.z_center[0]), form.domain.z_radius)
    else:
        raise DomainError(f"unknown f_mode {f_mode!r}")

    return ExtensionRecipe(q_tilde, period, f, float(constant))
