r"""Holomorphic potentials of closed (2,0)-forms by cone integration.

A form Omega = sum_ij Omega_ij dz^i /\ dw^j on a product of star-shaped
domains V x W integrates to the potential

    q(z, w) = sum_ij (z - z0)_i (w - w0)_j
              int_0^1 int_0^1 Omega_ij(z0 + s(z - z0), w0 + t(w - w0)) ds dt,

the pullback of Omega to the product of the radial segments from the base
points.  ``q`` vanishes on the slices {w = w0} and {z = z0}, is holomorphic
in each block, and satisfies d_z d_w q = Omega; the verifier operations in
this module check exactly those three contracts numerically.

Straight segments realize the radial cones of standard polar coordinates on
a ball; the potential is unchanged under isotopies of the coordinate system
fixing the centers, so nothing is lost by that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError
from .torus_spectral import _gl_nodes
from .wirtinger import mixed_second, wirtinger_pair

#: Refuse quadrature when any node comes this close to a declared singularity.
POLE_GUARD = 1e-3


def _as_vec(p, n: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(p, dtype=complex))
    if v.shape != (n,):
        raise ValueError(f"expected a point in C^{n}, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ProductDomain:
    """Product of two balls; star-shapedness w.r.t. interior points is free."""

    z_center: np.ndarray
    z_radius: float
    w_center: np.ndarray
    w_radius: float

    @classmethod
    def of_balls(cls, z_center, z_radius, w_center, w_radius, dim=None):
        n = dim or np.atleast_1d(np.asarray(z_center)).size
        return cls(_as_vec(z_center, n), float(z_radius), _as_vec(w_center, n), float(w_radius))

    @property
    def dim(self) -> int:
        return self.z_center.size

    def contains_z(self, pt) -> bool:
        return float(np.linalg.norm(_as_vec(pt, self.dim) - self.z_center)) <= self.z_radius * (1 + 1e-12)

    def contains_w(self, pt) -> bool:
        return float(np.linalg.norm(_as_vec(pt, self.dim) - self.w_center)) <= self.w_radius * (1 + 1e-12)


@dataclass(frozen=True)
class ClosedHoloForm:
    r"""A closed holomorphic (2,0)-form with only mixed dz^i /\ dw^j parts.

    ``coeff`` is a batched evaluator: given stacked points of shape (M, n)
    per block it returns the (M, n, n) array of Omega_ij values.  The type
    carries no dz/\dz or dw/\dw components by construction; closedness and
    holomorphy are numerical contracts checked by
    ``check_closed_and_holomorphic``.

    ``pole_clearance``, when present, maps stacked points to the minimum
    distance to the singular locus of the coefficients and is consulted by
    the quadrature guard.
    """

    dim: int
    coeff: Callable[[np.ndarray, np.ndarray], np.ndarray]
    base_z: np.ndarray
    base_w: np.ndarray
    domain: ProductDomain
    pole_clearance: Callable[[np.ndarray, np.ndarray], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "base_z", _as_vec(self.base_z, self.dim))
        object.__setattr__(self, "base_w", _as_vec(self.base_w, self.dim))
        if not self.domain.contains_z(self.base_z):
            raise DomainError("base_z outside the declared z-domain")
        if not self.domain.contains_w(self.base_w):
            raise DomainError("base_w outside the declared w-domain")

    def coeff_at(self, z, w) -> np.ndarray:
        zv = _as_vec(z, self.dim)
        wv = _as_vec(w, self.dim)
        return self.coeff(zv[None, :], wv[None, :])[0]


def pointwise_coeff(f: Callable, dim: int):
    """Wrap a per-point evaluator f(z, w) -> (n, n) into the batched contract."""

    def coeff(zpts, wpts):
        zpts = np.atleast_2d(zpts)
        wpts = np.atleast_2d(wpts)
        out = np.empty((zpts.shape[0], dim, dim), dtype=complex)
        for k in range(zpts.shape[0]):
            out[k] = np.asarray(f(zpts[k], wpts[k]), dtype=complex).reshape(dim, dim)
        return out

    return coeff


@dataclass(frozen=True)
class ConeQuadrature:
    """Tensor Gauss-Legendre on the parameter square, with bisection refine.

    Every cell maps the same cached rule (``torus_spectral._gl_nodes``).
    """

    nodes_per_axis: int = 64
    adaptive: bool = True
    max_subdivisions: int = 8
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be >= 2")


def _cell_value(form: ClosedHoloForm, dz, dw, quad: ConeQuadrature, s0, s1, t0, t1) -> complex:
    ss, wss = _gl_nodes(s0, s1, quad.nodes_per_axis)
    tt, wtt = _gl_nodes(t0, t1, quad.nodes_per_axis)
    S, T = np.meshgrid(ss, tt, indexing="ij")
    S, T = S.ravel(), T.ravel()
    Z = form.base_z[None, :] + S[:, None] * dz[None, :]
    W = form.base_w[None, :] + T[:, None] * dw[None, :]
    if form.pole_clearance is not None:
        if form.pole_clearance(Z, W) < POLE_GUARD:
            raise QuadratureError(
                f"quadrature node within {POLE_GUARD:g} of a singularity of the form"
            )
    C = form.coeff(Z, W)
    wgt = (wss[:, None] * wtt[None, :]).ravel()
    return complex(np.einsum("m,mij,i,j->", wgt, C, dz, dw))


def _adaptive_cell(form, dz, dw, quad, s0, s1, t0, t1, depth) -> complex:
    coarse = _cell_value(form, dz, dw, quad, s0, s1, t0, t1)
    if not quad.adaptive:
        return coarse
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    quads = [(s0, sm, t0, tm), (sm, s1, t0, tm), (s0, sm, tm, t1), (sm, s1, tm, t1)]
    fine = sum(_cell_value(form, dz, dw, quad, *c) for c in quads)
    err = abs(fine - coarse)
    budget = quad.tolerance * max((s1 - s0) * (t1 - t0), 1e-6)
    if err <= max(budget, 1e-15 * abs(fine)):
        return fine
    if depth >= quad.max_subdivisions:
        raise QuadratureError(
            f"cone quadrature did not converge (cell error {err:.3e} after "
            f"{depth} subdivisions); a singularity may be near the chain"
        )
    return sum(_adaptive_cell(form, dz, dw, quad, *c, depth + 1) for c in quads)


def cone_potential(form: ClosedHoloForm, z, w, quad: ConeQuadrature | None = None) -> complex:
    """Potential q(z, w) of the form by tensor line integration from the bases."""
    quad = quad or ConeQuadrature()
    zv = _as_vec(z, form.dim)
    wv = _as_vec(w, form.dim)
    if not form.domain.contains_z(zv):
        raise DomainError(f"z = {z!r} outside the declared z-domain")
    if not form.domain.contains_w(wv):
        raise DomainError(f"w = {w!r} outside the declared w-domain")
    dz = zv - form.base_z
    dw = wv - form.base_w
    return _adaptive_cell(form, dz, dw, quad, 0.0, 1.0, 0.0, 1.0, 0)


@dataclass(frozen=True)
class BoundaryReport:
    max_residual: float
    tolerance: float
    passed: bool
    residuals: tuple = field(default_factory=tuple)


def verify_boundary_vanishing(form: ClosedHoloForm, samples, quad: ConeQuadrature | None = None,
                              tolerance: float = 1e-10) -> BoundaryReport:
    """Check q(z, w0) = 0 and q(z0, w) = 0 over sample pairs (z, w)."""
    res = []
    for z, w in samples:
        res.append(abs(cone_potential(form, z, form.base_w, quad)))
        res.append(abs(cone_potential(form, form.base_z, w, quad)))
    worst = max(res) if res else 0.0
    return BoundaryReport(worst, tolerance, worst <= tolerance, tuple(res))


def _shifted(v: np.ndarray, k: int, c: complex) -> np.ndarray:
    out = v.copy()
    out[k] = c
    return out


def verify_mixed_derivative(form: ClosedHoloForm, z, w, quad: ConeQuadrature | None = None,
                            h: float = 1e-3) -> np.ndarray:
    """Entrywise |FD d^2q/dz^i dw^j - Omega_ij| at (z, w).

    The derivative is ``wirtinger.mixed_second``: central differences on
    holomorphic directions plus one Richardson step.  The full stencil
    (offsets up to h per coordinate) must stay inside the declared domain.
    """
    n = form.dim
    zv = _as_vec(z, n)
    wv = _as_vec(w, n)
    for k in range(n):
        for s in (+h, -h):
            if not form.domain.contains_z(_shifted(zv, k, zv[k] + s)):
                raise DomainError("FD stencil leaves the z-domain")
            if not form.domain.contains_w(_shifted(wv, k, wv[k] + s)):
                raise DomainError("FD stencil leaves the w-domain")

    omega = form.coeff_at(zv, wv)
    out = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            q = lambda a, b: cone_potential(form, _shifted(zv, i, a), _shifted(wv, j, b), quad)
            out[i, j] = abs(mixed_second(q, zv[i], wv[j], h) - omega[i, j])
    return out


@dataclass(frozen=True)
class FormCheckReport:
    closedness_residual: float
    antiholomorphic_residual: float
    tolerance: float
    passed: bool


def check_closed_and_holomorphic(form: ClosedHoloForm, samples, h: float = 1e-3,
                                 tolerance: float = 1e-8) -> FormCheckReport:
    """FD residuals of the closedness symmetries and of anti-holomorphy.

    Closedness of a purely mixed (2,0)-form is equivalent to
    d_{z^k} Omega_ij = d_{z^i} Omega_kj and d_{w^k} Omega_ij = d_{w^j} Omega_ik.
    """
    n = form.dim
    closed = 0.0
    anti = 0.0
    for z, w in samples:
        zv = _as_vec(z, n)
        wv = _as_vec(w, n)
        dz_omega = np.empty((n, n, n), dtype=complex)
        dw_omega = np.empty((n, n, n), dtype=complex)
        for k in range(n):
            fz = lambda c: form.coeff_at(_shifted(zv, k, c), wv)
            fw = lambda c: form.coeff_at(zv, _shifted(wv, k, c))
            dz_omega[k], fz_bar = wirtinger_pair(fz, zv[k], h)
            dw_omega[k], fw_bar = wirtinger_pair(fw, wv[k], h)
            anti = max(anti, float(np.max(np.abs(fz_bar))), float(np.max(np.abs(fw_bar))))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    closed = max(closed, abs(dz_omega[k][i, j] - dz_omega[i][k, j]))
                    closed = max(closed, abs(dw_omega[k][i, j] - dw_omega[j][i, k]))
    passed = closed <= tolerance and anti <= tolerance
    return FormCheckReport(closed, anti, tolerance, passed)
