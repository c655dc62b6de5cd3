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
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import BUILTIN_FORMS
from .errors import BudgetError, DomainError, NotPluriharmonicError
from .potential_builder import (  # noqa: F401 -- bench/tests looks cone_potential up here
    ClosedHoloForm,
    cone_potential,
    cone_potentials,
)
from .special_functions import as_complex, log_eta
from .torus_spectral import closed_form_log_det

TWO_PI = 2.0 * math.pi

#: Boundary samples after the first step from the probe, of a part whose tail
#: is above rounding there; f keeps the first N/2 coefficients of each part.
SPLIT_SAMPLES = 256
#: The probe's boundary samples, SPLIT_SAMPLES/4: the least N whose top 16
#: coefficients (modes 16-31) do not overlap the 16 lowest.  Over eps max|part|
#: their sum there is 2.3 for the genus-1 cone part, 2.5e12 or more for the
#: closed-form part and the verify-all splits, against the rounding N = 64.
SPLIT_PROBE_SAMPLES = SPLIT_SAMPLES // 4
#: Each later step doubles N while the tail certificate fails, up to this.
SPLIT_MAX_SAMPLES = 4096

#: The f_mode values ``genus1_recipe`` knows.
F_MODES = ("zero", "eta", "eta2", "split")


@dataclass(frozen=True, eq=False)
class ProductPoint:
    """Points (z, w) of the complexified model H x Hbar: both finite, Im(z) > 0 > Im(w).

    z and w are complex arrays of one shape S holding a point of H x Hbar at
    each index; a single point is a 0-d array.  A z or w that is neither a
    complex number nor an ndarray of numbers is ``as_complex``'s DomainError;
    otherwise the DomainError names the first point off H x Hbar.
    """

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        z, w = np.asarray(as_complex(self.z, "z")), np.asarray(as_complex(self.w, "w"))
        if z.shape != w.shape:
            raise DomainError(f"z and w must have one shape, got {z.shape} and {w.shape}")
        finite = np.isfinite(z) & np.isfinite(w)
        bad = ~(finite & (z.imag > 0.0) & (w.imag < 0.0))
        if bad.any():
            i = np.argmax(bad.ravel())
            zi, wi = complex(z.ravel()[i]), complex(w.ravel()[i])
            if not finite.ravel()[i]:
                raise DomainError(f"z and w must be finite, got {zi!r}, {wi!r}")
            if not zi.imag > 0.0:
                raise DomainError(f"Im(z) must be positive, got {zi!r}")
            raise DomainError(f"Im(w) must be negative, got {wi!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @classmethod
    def diagonal(cls, z) -> "ProductPoint":
        """The points (z, zbar) of the diagonal, for a point or an array z."""
        z = np.asarray(as_complex(z))
        return cls(z, z.conj())


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


@functools.cache
def genus1_pole_form() -> ClosedHoloForm:
    r"""The model form (z - w)^{-2} dz /\ dw: the catalog entry ``wp_genus1``, built once.

    Bases (i, -i); domain: balls of radius 4.9 around +/- 5i, which cover
    the working strip 0.1 < |Im| < 9.9 of the half planes while staying off
    the real axis.  Every call returns the one form, whose arrays are read-only.
    """
    return BUILTIN_FORMS["wp_genus1"].build()


def pluriharmonic_split(parts: Sequence[Callable[[np.ndarray], np.ndarray]], center: complex,
                        radius: float) -> Callable:
    """Holomorphic f with h = 2 Re f on the disc D = D(c, r) in H: the Schwarz formula.

    ``parts`` is a non-empty sequence of batched real functions whose sum is
    h (a single h is a 1-tuple): each maps an array of points to their real
    values.  The Cayley coordinate phi(z) = (z - a)/(z - conj(a)), with
    a = Re c + i sqrt(Im c^2 - r^2), maps D onto |phi| <= rho.  A part's
    samples on the circle of N equally spaced phi give H = rfft(samples)/N
    and the series H_0/2 + sum_{n=1}^{N/2-1} H_n (phi/rho)^n (the trapezoidal
    rule); the split is linear, so f is the sum of the parts' series, shifted
    so that Im f(c) = 0.  Each part is called first at the probe, the
    SPLIT_PROBE_SAMPLES circle and 8 points of |phi| = rho/2.  One rule then
    refines it: the N circle is every other point of the 2N circle, so a step
    to max(SPLIT_SAMPLES, 2N) samples calls the part once, at the points the
    last circle lacks.  With tol = 1e-8 max(1, max|h|) over the summed probe
    values, a part steps while its top 16 |H_n| sum above tol/len(parts), at
    the probe also while above N eps max|part|, the worst rounding of one
    coefficient of an N-point sum; a step past
    SPLIT_MAX_SAMPLES raises BudgetError.  |h - 2 Re f| > tol at the inner
    points raises NotPluriharmonicError, so only the sum need be
    pluriharmonic.  f takes an array of points, a point being a 0-d array,
    and sums the series from one power table of phi/rho, whose coefficients
    are read-only; outside the closed disc, DomainError.  No parts, or a call
    of a part that returns no finite real array of its points' shape, raises
    DomainError at once.
    """
    parts = tuple(parts)
    if not parts:
        raise DomainError("pluriharmonic_split needs at least one part of h")
    c, r = complex(center), float(radius)
    if not (cmath.isfinite(c) and 0.0 < r < c.imag):
        raise DomainError(f"split disc D({c!r}, {r!r}) must be a disc in the upper half plane")
    a = complex(c.real, math.sqrt(c.imag ** 2 - r ** 2))
    rho = (c.imag - a.imag) / r

    def from_phi(p):
        return (a - a.conjugate() * p) / (1.0 - p)

    def circle(n):
        return rho * np.exp(TWO_PI * 1j * np.arange(n) / n)

    def sample(h, z):
        values = np.asarray(h(z))
        if values.shape != z.shape or values.dtype.kind not in "biuf":
            raise DomainError(f"h must return {z.size} real values, got {values.dtype} {values.shape}")
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise DomainError(f"h({complex(z[i])!r}) = {float(values[i])!r} is not finite")
        return values.astype(float, copy=False)

    def resolve(samples):
        # the series' coefficients from N boundary samples, and the sum of the top 16
        coeffs = np.fft.rfft(samples)[: len(samples) // 2] / len(samples)
        return coeffs, float(np.sum(np.abs(coeffs[-16:])))

    inner = from_phi(0.5 * circle(8))
    probes = [sample(h, np.concatenate([from_phi(circle(SPLIT_PROBE_SAMPLES)), inner])) for h in parts]
    h_probe = sum(probes)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(h_probe))))
    share = tol / len(parts)
    series_of_parts = []
    for h, values in zip(parts, probes):
        samples = values[:SPLIT_PROBE_SAMPLES]
        eps_max = np.finfo(float).eps * float(np.max(np.abs(values)))
        while True:
            coeffs, tail = resolve(samples)
            if tail <= share and (len(samples) >= SPLIT_SAMPLES or tail <= len(samples) * eps_max):
                break
            if len(samples) >= SPLIT_MAX_SAMPLES:
                raise BudgetError(f"Schwarz split tail {tail:.3e} exceeds {share:.3e} on "
                                  f"D({c!r}, {r!r}) with {len(samples)} samples")
            n = max(SPLIT_SAMPLES, 2 * len(samples))
            new = np.arange(n) % (n // len(samples)) != 0  # the points the last circle lacks
            samples, old = np.empty(n), samples
            samples[~new], samples[new] = old, sample(h, from_phi(circle(n)[new]))
        series_of_parts.append(coeffs)
    coeffs = np.zeros(max(map(len, series_of_parts)), dtype=complex)
    for part in series_of_parts:
        coeffs[: len(part)] += part
    coeffs[0] *= 0.5

    def f(z):
        z = np.asarray(z, dtype=complex)
        outside = z[~(np.abs(z - c) <= r * (1 + 1e-12))]
        if len(outside):
            raise DomainError(f"z = {complex(outside[0])!r} outside the split disc D({c!r}, {r!r})")
        # sum_k coeffs[k] (phi/rho)^k from one power table, np.cumprod of phi/rho
        p = (z - a) / (z - a.conjugate()) / rho
        powers = np.cumprod(np.broadcast_to(p[..., None], np.shape(p) + (len(coeffs) - 1,)), axis=-1)
        return coeffs[0] + powers @ coeffs[1:]

    # c and the inner points lie in the disc; the shift leaves every real part as it is
    at = f(np.concatenate([[c], inner]))
    coeffs[0] -= 1j * at[0].imag
    coeffs.flags.writeable = False  # one f may serve many callers
    res = float(np.max(np.abs(h_probe[SPLIT_PROBE_SAMPLES:] - 2.0 * at[1:].real)))
    if res > tol:
        raise NotPluriharmonicError(f"pluriharmonicity residual {res:.3e} exceeds {tol:.3e}")
    return f


@dataclass(frozen=True, eq=False)
class ExtensionRecipe:
    """Ingredients of an assembled holomorphic extension, each a function of arrays of points.

    ``q_tilde``: symmetrized potential evaluator on the product domain, (z, w)
    of shape S to values of shape S; ``period_map``: holomorphic map to
    symmetric g x g matrices in Siegel space, points of shape S to matrices
    of shape S + (g, g), g being the genus; ``f``: holomorphic function of
    the first block, points of shape S to values of shape S (or a constant);
    ``genus_constant``: the prefactor of q_tilde (an input, never computed here).
    """

    q_tilde: Callable
    period_map: Callable
    f: Callable
    genus_constant: float


def _first(bad: np.ndarray, point: ProductPoint) -> str:
    """The point (z, w) at the first index where ``bad`` holds."""
    i = np.argmax(bad.ravel())
    return f"({complex(point.z.ravel()[i])!r}, {complex(point.w.ravel()[i])!r})"


def _log_det_term(taus, point: ProductPoint) -> np.ndarray:
    """log det M = sum_k Log mu_k over the eigenvalues mu_k of M = (tau(z) - conj(tau(wbar)))/2i.

    ``taus`` stacks tau(z) and tau(wbar) at every point; each test runs over
    the whole stack and its DomainError names the first point that fails it.
    """
    taus, shape = np.asarray(taus, dtype=complex), (2, *point.z.shape)
    if taus.shape[:-2] != shape or taus.shape[-1] != taus.shape[-2]:
        raise DomainError(f"period_map must map points of shape {shape} to square "
                          f"matrices on two more axes, got shape {taus.shape}")
    sym = np.max(np.abs(taus - np.swapaxes(taus, -1, -2)), axis=(-2, -1))
    asym = sym > 1e-12 * (1.0 + np.max(np.abs(taus), axis=(-2, -1)))
    for name, bad, res in zip(("tau(z)", "tau(wbar)"), asym, sym):
        if bad.any():
            raise DomainError(f"{name} at {_first(bad, point)} is not symmetric: "
                              f"residual {res[bad][0]:.3e}")
    mat = (taus[0] - np.conj(taus[1])) / 2j
    outside = ~(np.linalg.eigvalsh(mat.real)[..., 0] > 0.0)
    if outside.any():
        raise DomainError(f"Re of the period-matrix difference at {_first(outside, point)} "
                          "is not positive definite; outside Siegel space")
    # Re M positive definite puts every eigenvalue in Re mu > 0: M is invertible
    return np.log(np.linalg.eigvals(mat)).sum(axis=-1)  # in genus 1 exactly Log M_00


def _shaped(name: str, values, *shapes):
    """``values``, of one of ``shapes``; any other shape is a DomainError that names it."""
    if np.shape(values) not in shapes:
        raise DomainError(f"{name} must map points of shape {shapes[0]} to values of "
                          f"shape {' or '.join(map(str, shapes))}, got shape {np.shape(values)}")
    return values


def assemble_extension(recipe: ExtensionRecipe, point: ProductPoint):
    """C * q~(z,w) + log det((tau(z) - conj(tau(wbar)))/2i) + f(z) + conj(f(wbar)) at every point.

    One call each of the period map and f, on the stack [z, wbar], and one of
    q~ (none when C = 0); values have the points' shape, and values of f or q~
    of another shape (but a scalar f) are a DomainError naming it.  BudgetError
    names the first point where the value is not finite.
    """
    z, w = point.z, point.w
    stack = np.stack([z, np.conj(w)])
    log_det = _log_det_term(recipe.period_map(stack), point)
    f_z, f_wbar = np.broadcast_to(_shaped("f", recipe.f(stack), stack.shape, ()), stack.shape)
    value = (recipe.genus_constant * _shaped("q_tilde", recipe.q_tilde(z, w), z.shape)
             if recipe.genus_constant != 0 else 0.0)
    with np.errstate(all="ignore"):
        value = value + log_det + f_z + np.conj(f_wbar)
    bad = ~np.isfinite(value)
    if bad.any():
        raise BudgetError(f"assemble_extension at {_first(bad, point)} is not finite")
    return value


def genus1_extension(point: ProductPoint):
    """Eta-function extension (1/2) Log(-pi i (z-w)) + log_eta(z) + conj(log_eta(wbar)).

    ``ProductPoint`` keeps Im z > 0 > Im w, so -pi*i*(z - w) has positive real
    part and the principal logarithm is continuous everywhere it is used; on
    the diagonal w = zbar the value is log((2 pi y)^(1/2) |eta(z)|^2), real.
    The values at every point come from one ``log_eta`` call on z and on the
    wbar that differ from z; a wbar equal to z, as on the diagonal, takes
    log_eta(z).  BudgetError names the first point where the value overflows.
    """
    z, w = point.z, point.w
    wbar = np.conj(w)
    fresh = wbar != z
    etas = log_eta(np.concatenate([z.ravel(), wbar[fresh]]))
    eta_z = etas[:z.size].reshape(z.shape)
    eta_wbar = eta_z.copy()
    eta_wbar[fresh] = etas[z.size:]
    with np.errstate(all="ignore"):
        value = 0.5 * np.log(-1j * math.pi * (z - w)) + eta_z + np.conj(eta_wbar)
    bad = ~np.isfinite(value)
    if bad.any():
        raise BudgetError(f"genus1_extension at {_first(bad, point)} overflows")
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
                   z-ball from h in two parts: the closed-form log det minus
                   log(Im tau), sampled at 256 + 8 points in two calls, and
                   -C Re q~(z, zbar), whose tail is at rounding level at the
                   probe: one ``cone_potentials`` call of 64 + 8 targets.

    A non-finite ``constant`` or an ``f_mode`` outside ``F_MODES`` raises
    DomainError before anything is built.
    """
    if not math.isfinite(constant):
        raise DomainError(f"genus constant must be finite, got {constant!r}")
    if f_mode not in F_MODES:
        raise DomainError(f"unknown f_mode {f_mode!r}; known: {', '.join(F_MODES)}")
    form = genus1_pole_form()
    q_tilde = symmetrized_evaluator(lambda Z, W: cone_potentials(form, Z, W).values)
    period = lambda z: z[..., None, None]

    if f_mode == "zero":
        f = lambda z: 0.0 + 0.0j
    elif f_mode == "eta":
        f = lambda z: (0.25 * math.log(TWO_PI) + 0.5 * math.log(2.0)
                       + log_eta(z) - 0.5 * np.log(z + 1j))
    elif f_mode == "eta2":
        f = lambda z: 2.0 * log_eta(z) - math.log(2.0) + np.log(z + 1j)
    else:  # split
        # on the diagonal Re q~(z, zbar) = Re q(z, zbar); the cone part is at
        # rounding level at the probe, so its one batched call has 72 targets
        parts = (lambda Z: closed_form_log_det(Z) - np.log(Z.imag),
                 lambda Z: -constant * cone_potentials(form, Z, Z.conj()).values.real)
        f = pluriharmonic_split(parts, complex(form.domain.z_center[0]), form.domain.z_radius)

    return ExtensionRecipe(q_tilde, period, f, float(constant))
