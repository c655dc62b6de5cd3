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

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
from .torus_spectral import _gauss_legendre, _gl_nodes
from .wirtinger import RADIUS, Contour, contour

#: Quadrature nodes evaluated per batched pass of ``cone_potentials``.  In
#: two paired in-process scans of 20 rounds with passes on node blocks
#: (2-core VM, one BLAS thread), against 4096: 2048 took 1.24-1.36x the
#: time on a 264-target split-build call, 1.03-1.09x on a refining
#: near-pole batch and 1.29-1.30x on a 32-point grid; 6000 took 0.86-0.92x,
#: 0.91-1.01x and 0.92-0.97x; 8192 0.92-0.95x, 0.79-0.81x and 0.81-0.88x,
#: the one size to win on all three.  Change it only on a paired run;
#: MAX_ORDER^2 <= PASS_NODES.
PASS_NODES = 1 << 13

#: Gauss-Legendre order per axis every cone cell tries first; a cell it
#: refuses runs again at MAX_ORDER before it splits.
FIRST_ORDER = 20

#: The largest Gauss-Legendre order per axis; a cell refused at it splits.
MAX_ORDER = 64

#: A cell is accepted when its tail is within this times max(area, 1e-6).
CELL_TOLERANCE = 1e-12

#: A cell still refused at this subdivision depth raises QuadratureError.
MAX_DEPTH = 8

#: Per node of an axis: coefficient tails below this share of a cell's
#: |integrand| mass are rounding noise.  Rounding alone leaves tails of about
#: 90 eps of the mass at 32 and 64 nodes and about 700 eps at 256.
_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class ProductDomain:
    """Product of two balls, centers held as read-only complex arrays; star-shapedness
    w.r.t. interior points is free.  A center that is not a complex point or array, or
    a radius that is not a finite positive number, is a DomainError that names it."""

    z_center: np.ndarray
    z_radius: float
    w_center: np.ndarray
    w_radius: float

    def __post_init__(self):
        for block in "zw":
            center, radius = getattr(self, f"{block}_center"), getattr(self, f"{block}_radius")
            try:
                held = np.array(center, dtype=complex, ndmin=1)
            except (TypeError, ValueError):  # ragged or non-numeric
                raise DomainError(f"{block}_center is not a complex point: {center!r}") from None
            try:
                size = float(radius)
            except (TypeError, ValueError):
                size = math.nan
            if not (math.isfinite(size) and size > 0):
                raise DomainError(f"{block}_radius must be finite and positive, got {radius!r}")
            held.flags.writeable = False
            object.__setattr__(self, f"{block}_center", held)
            object.__setattr__(self, f"{block}_radius", size)

    def require_inside(self, Z: np.ndarray, W: np.ndarray, names=("z", "w")) -> None:
        """Refuse points Z, W of shape (K, n) outside the z- and w-ball; the DomainError
        names the first, as ``names`` call the blocks."""
        for name, block, P in zip(names, "zw", (Z, W)):
            center, radius = getattr(self, f"{block}_center"), getattr(self, f"{block}_radius")
            inside = np.linalg.norm(P - center, axis=-1) <= radius * (1 + 1e-12)
            if not inside.all():
                bad = P[int(np.argmin(inside))]
                shown = complex(bad[0]) if bad.size == 1 else bad
                raise DomainError(f"{name} = {shown!r} outside the declared {block}-domain")


@dataclass(frozen=True)
class ClosedHoloForm:
    r"""A closed holomorphic (2,0)-form with only mixed dz^i /\ dw^j parts.

    ``coeff`` is a batched evaluator: given point blocks of shapes (..., n)
    per block that broadcast, it returns the Omega_ij values, shape
    (..., n, n) over the broadcast shape.  Stacked points of shape (M, n)
    are the special case; a cone pass hands it a z block of shape
    (cells, nodes, 1, n) and a w block of shape (cells, 1, nodes, n).  The type
    carries no dz/\dz or dw/\dw components by construction; closedness and
    holomorphy are numerical contracts checked by
    ``check_closed_and_holomorphic``.  A coefficient that has a pole refuses
    points near it itself, with a QuadratureError.  The bases and both ball
    centers must be finite points of C^dim, and each base lies in its ball;
    the bases are held as read-only arrays.
    """

    dim: int
    coeff: Callable[[np.ndarray, np.ndarray], np.ndarray]
    base_z: np.ndarray
    base_w: np.ndarray
    domain: ProductDomain

    def __post_init__(self):
        dom = self.domain
        points = _targets(np.atleast_1d(self.base_z, self.base_w, dom.z_center, dom.w_center),
                          self.dim, "bases and ball centers")
        points.flags.writeable = False
        object.__setattr__(self, "base_z", points[0])
        object.__setattr__(self, "base_w", points[1])
        dom.require_inside(points[:1], points[1:2], ("base_z", "base_w"))


class ConePotentials(NamedTuple):
    """Result of ``cone_potentials``: one entry per target pair."""

    values: np.ndarray  # complex potentials q(z_k, w_k)
    errors: np.ndarray  # estimated absolute errors, summed over accepted cells
    cells: np.ndarray   # accepted cells per target
    orders: np.ndarray  # largest rule order per axis among a target's accepted cells


@lru_cache(maxsize=32)
def _legendre_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real rows that reduce the n Gauss-Legendre samples of a node line on [0, 1].

    Rows 0-3 of ``rows`` (shape (5, n)) take the samples to the Legendre
    coefficients of degrees n//2 - 2, n//2 - 1, n - 2, n - 1: coefficient k
    is (2k + 1)/2 sum_a w_a P_k(x_a) g_a on the reference rule.  Row 4 is
    the rule's weights on [0, 1].  ``pairs``, shape (2n, 8), applies rows
    0-3 to n complex samples stored as (re, im) pairs; ``weights`` holds
    the n x n tensor rule's weights, flattened.
    """
    xs, ws = _gauss_legendre(n)
    degrees = np.array([n // 2 - 2, n // 2 - 1, n - 2, n - 1])
    vander = np.polynomial.legendre.legvander(xs, n - 1)[:, degrees]
    legendre = (degrees + 0.5)[:, None] * (vander * ws[:, None]).T
    unit = 0.5 * ws  # the rule's weights on [0, 1], as ``_gl_nodes`` maps them
    rows, pairs = np.vstack([legendre, unit]), np.kron(legendre.T, np.eye(2))
    weights = np.outer(unit, unit).ravel()
    rows.flags.writeable = pairs.flags.writeable = weights.flags.writeable = False
    return rows, pairs, weights


def _cell_sums(F: np.ndarray, rows: np.ndarray, pairs: np.ndarray, weights: np.ndarray):
    """Sum F w, sum |F| w and the line masses A, shape (cells, 4), of each cell of F.

    A_k sums |c_k| of the integrand over the node lines in s and in t,
    weighted by the rule, for the four degrees of ``_legendre_rows(n)``;
    ``rows``, ``pairs`` and ``weights`` are ``_legendre_rows(n)``.  All of
    it is real arithmetic on F as (re, im) pairs: the product with ``rows``
    also yields sum_a w_a F_ab, from which the weights give sum F w.
    """
    cells, n = F.shape[:2]
    ws = rows[4]
    X = F.view(float).reshape(cells, n, 2 * n)
    along_s = rows @ X  # (cells, 5, 2n): four coefficient rows, then sum_a w_a F_ab
    along_t = (X.reshape(-1, 2 * n) @ pairs).view(complex)
    A = ws @ np.abs(along_t.reshape(-1, n, 4)) + np.abs(along_s[:, :4].view(complex)) @ ws
    total = (ws @ along_s[:, 4].reshape(cells, n, 2)).view(complex)[:, 0]
    # a product per cell, as the others are: a cell's sums do not depend on its pass-mates
    return total, (np.abs(F).reshape(cells, 1, -1) @ weights)[:, 0], A


def _coefficient_tail(A: np.ndarray, n: int) -> np.ndarray:
    """Truncation error of the n x n rule on each cell, per unit area, from its line masses A.

    The top pair A_{n-1} + A_{n-2} is carried to degree 2n, the first one
    the rule does not integrate, at the decay per two degrees shown across
    half the rule, from the pair n - n//2 degrees lower (at most 1: a tail
    that does not decay is not extrapolated).  An unresolved, aliased
    integrand shows no geometric decay over that stretch (Aurentz &
    Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017).
    """
    top, mid = A[:, 2] + A[:, 3], A[:, 0] + A[:, 1]
    ratio = np.minimum(np.divide(top, mid, out=np.ones_like(top), where=mid > 0), 1.0)
    return top * (ratio ** (2 / (n - n // 2))) ** ((n + 1) / 2)


def _sizes(points) -> str:
    """The sizes of points of unequal sizes, as a message; empty for any other ``points``."""
    try:
        sizes = sorted({np.size(p) for p in points})
    except (TypeError, ValueError):  # not a sequence of sequences of numbers
        return ""
    return f"got points of sizes {', '.join(map(str, sizes))}" if len(sizes) > 1 else ""


def _targets(points, n: int, what: str) -> np.ndarray:
    """``points`` as an array of shape (K, n): finite points of C^n (shape (K,) when n = 1)."""
    try:
        arr = np.asarray(points, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise DomainError(f"{what} are not points of C^{n}: {_sizes(points) or exc}") from None
    if n == 1 and arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DomainError(f"{what} must be points of C^{n}, shape (K, {n}), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


def _integrand(form: ClosedHoloForm, dz, dw, S, T) -> np.ndarray:
    """sum_ij Omega_ij dz_i dw_j on each cell's node grid S x T, shape (cells, n, n).

    One ``form.coeff`` call takes every node, as a z block of shape
    (cells, n, 1, dim) and a w block of shape (cells, 1, n, dim) that
    broadcast: a pass holds at most max(1, PASS_NODES // n^2) cells, and
    MAX_ORDER^2 <= PASS_NODES.
    """
    cells, n = S.shape
    C = form.coeff(form.base_z + S[:, :, None, None] * dz[:, None, None, :],
                   form.base_w + T[:, None, :, None] * dw[:, None, None, :])
    if form.dim == 1:  # Omega dz dw is one product per node
        return C.reshape(cells, n, n) * (dz * dw)[:, :, None]
    dzdw = (dz[:, :, None] * dw[:, None, :]).reshape(cells, 1, -1)
    return (dzdw @ C.reshape(cells, n * n, -1).swapaxes(1, 2)).reshape(cells, n, n)


def cone_potentials(form: ClosedHoloForm, Z, W) -> ConePotentials:
    """Potentials q(z_k, w_k) of the form at K target pairs, in batched passes.

    ``Z`` and ``W`` hold K points of C^n each, shape (K, n) (or (K,) when
    n = 1).  Every cell of a target's parameter square is one tensor rule of
    cached Gauss-Legendre nodes, FIRST_ORDER or MAX_ORDER per axis.  Each
    cell's error estimate is read off its own samples: the decay of the
    integrand's top Legendre coefficients along every node line, in s and
    in t (``_coefficient_tail``; Trefethen, ATAP, ch. 19).  A tail within
    n * ``_ROUNDING`` of the cell's |integrand| mass is rounding noise,
    which no refinement lowers.  A cell is accepted when its tail is within
    CELL_TOLERANCE * max(area, 1e-6), 1e-15 |value| or that floor.  The
    cells walk one ladder, stage by stage: at each depth from 0 to
    MAX_DEPTH the cells still refused run at FIRST_ORDER, those refused
    there run again at MAX_ORDER (p before h refinement), and those refused
    at both split in four for the next depth.  So every cell the fixed MAX_ORDER
    rule would accept is accepted at the same depth or higher up; a cell
    still refused after depth MAX_DEPTH raises QuadratureError.  Each pass
    runs at most max(1, PASS_NODES // n^2) cells of one order n, all of
    their nodes in one ``form.coeff`` call, and only reduces them: sum F w,
    sum |F| w and the line masses of ``_cell_sums``.  The stage then
    accepts or refuses all of its cells at once, and a stage with no cells
    left runs nothing.  The result holds per target the
    value, the summed estimates of its accepted cells (at least the
    rounding floor), their count and the largest order among them.
    """
    Z, W = _targets(Z, form.dim, "z targets"), _targets(W, form.dim, "w targets")
    if Z.shape != W.shape:
        raise DomainError(f"z targets of shape {Z.shape} but w targets of shape {W.shape}")
    form.domain.require_inside(Z, W)
    dz, dw = Z - form.base_z, W - form.base_w

    count = Z.shape[0]
    values = np.zeros(count, dtype=complex)
    errors = np.zeros(count)
    cells = np.zeros(count, dtype=int)
    orders = np.zeros(count, dtype=int)
    # the cells still refused, all of side 2^-depth: target k and corner (s0, t0)
    k, s0, t0 = np.arange(count), np.zeros(count), np.zeros(count)
    for depth in range(MAX_DEPTH + 1):
        side = 0.5 ** depth
        area = side * side
        for n in (FIRST_ORDER, MAX_ORDER):
            m = k.size
            if not m:  # an empty stage runs nothing
                break
            nodes, rule = side * _gl_nodes(0.0, 1.0, n)[0], _legendre_rows(n)
            step = max(1, PASS_NODES // (n * n))
            # a pass reduces its cells' samples: sum F w, sum |F| w and the line masses
            total, mass, A = np.empty(m, complex), np.empty(m), np.empty((m, 4))
            dzk, dwk, S, T = dz[k], dw[k], s0[:, None], t0[:, None]
            for p in (slice(i, i + step) for i in range(0, m, step)):
                F = _integrand(form, dzk[p], dwk[p], S[p] + nodes, T[p] + nodes)
                total[p], mass[p], A[p] = _cell_sums(F, *rule)
            # the stage accepts its cells at once
            cell = area * total
            tail = area * _coefficient_tail(A, n)
            floor = _ROUNDING * n * area * mass
            budget = np.maximum(CELL_TOLERANCE * max(area, 1e-6), 1e-15 * np.abs(cell))
            ok, est = tail <= np.maximum(budget, floor), np.maximum(tail, floor)
            np.add.at(values, k[ok], cell[ok])
            np.add.at(errors, k[ok], est[ok])
            np.add.at(cells, k[ok], 1)
            np.maximum.at(orders, k[ok], n)
            k, s0, t0 = k[~ok], s0[~ok], t0[~ok]
        if not k.size:
            return ConePotentials(values, errors, cells, orders)
        if depth == MAX_DEPTH:
            raise QuadratureError(
                f"cone quadrature did not converge (cell error {est[~ok].max():.3e} after "
                f"{MAX_DEPTH} subdivisions); a singularity may be near the chain"
            )
        # quarters of the cells refused at both orders, for the next depth
        k = np.repeat(k, 4)
        s0 = (s0[:, None] + 0.5 * side * np.array([0, 1, 0, 1])).ravel()
        t0 = (t0[:, None] + 0.5 * side * np.array([0, 0, 1, 1])).ravel()


def cone_potential(form: ClosedHoloForm, z, w) -> complex:
    """Potential q(z, w) of the form: a one-target ``cone_potentials`` call."""
    return complex(cone_potentials(form, [z], [w]).values[0])


def _pair_targets(form: ClosedHoloForm, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The z and the w points of a non-empty list of (z, w) pairs, checked, shape (K, n) each."""
    if not len(pairs):
        raise DomainError("no (z, w) pairs to verify")
    return (_targets([p[0] for p in pairs], form.dim, "z targets"),
            _targets([p[1] for p in pairs], form.dim, "w targets"))


def verify_boundary_vanishing(form: ClosedHoloForm, pairs) -> np.ndarray:
    """|q(z, w0)| and |q(z0, w)| per pair (z, w), interleaved, from one batched call."""
    Z, W = _pair_targets(form, pairs)
    Z = np.stack([Z, np.broadcast_to(form.base_z, Z.shape)], axis=1).reshape(-1, form.dim)
    W = np.stack([np.broadcast_to(form.base_w, W.shape), W], axis=1).reshape(-1, form.dim)
    return np.abs(cone_potentials(form, Z, W).values)


def _moved(P: np.ndarray, k: np.ndarray, c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Points P[k] with coordinate c[e] of entry e set to p[..., e], stacked to shape (-1, n)."""
    out = np.broadcast_to(P[k], p.shape + P.shape[1:]).copy()
    out[..., np.arange(k.size), c] = p
    return out.reshape(-1, P.shape[1])


def verify_mixed_derivative(form: ClosedHoloForm, pairs) -> tuple[np.ndarray, Contour]:
    """|d_z^i d_w^j q - Omega_ij| at each pair (z, w), shape (K, n, n), and the rule's ``Contour``.

    The rule is ``wirtinger.contour``: entry (k, i, j) moves coordinate i of
    z_k and coordinate j of w_k on circles, and its mode (1, 1) is the
    derivative.  The NODES^2 samples of all K n^2 entries are one
    ``cone_potentials`` call, whose domain check names a sample outside the
    domain.  The Contour's ``rounding`` includes the cone's largest error over r^2.
    """
    Zp, Wp = _pair_targets(form, pairs)
    K, n = Zp.shape
    # entry (k, i, j) moves coordinate i of z_k and coordinate j of w_k
    k, i, j = (a.ravel() for a in np.indices((K, n, n)))
    cone = []

    def q(a, b):
        cone.append(cone_potentials(form, _moved(Zp, k, i, a), _moved(Wp, k, j, b)))
        return cone[0].values.reshape(a.shape)

    rule = contour(q, Zp[k, i], Wp[k, j])
    residuals = np.abs(rule.modes[1, 1].reshape(K, n, n) - form.coeff(Zp, Wp))
    rounding = rule.rounding + float(cone[0].errors.max()) / RADIUS ** 2
    return residuals, rule._replace(rounding=rounding)


def check_closed_and_holomorphic(form: ClosedHoloForm, pairs) -> tuple[float, float, Contour]:
    """Worst residuals of closedness and of anti-holomorphy over the pairs, and the rule's ``Contour``.

    Closedness of a purely mixed (2,0)-form is equivalent to
    d_{z^k} Omega_ij = d_{z^i} Omega_kj and d_{w^k} Omega_ij = d_{w^j} Omega_ik.
    The derivatives are the modes 1 and -1 of ``wirtinger.contour``, with
    every (pair, coordinate) entry moved on its circle: one ``form.coeff`` call per
    block, for any K and n.  The rule's rounding is twice the larger block's (closedness
    subtracts two modes), and its alias the larger.
    """
    Zp, Wp = _pair_targets(form, pairs)
    K, n = Zp.shape
    # entry (k, c) moves coordinate c of z_k, then of w_k
    k, c = (a.ravel() for a in np.indices((K, n)))

    def moved(block, p):
        points = [np.broadcast_to(P[k], p.shape + (n,)).reshape(-1, n) for P in (Zp, Wp)]
        points[block] = _moved((Zp, Wp)[block], k, c, p)
        return form.coeff(*points).reshape(p.shape + (n, n))

    closed = anti = rounding = alias = 0.0
    for block, swap in ((0, (0, 2, 1, 3)), (1, (0, 3, 2, 1))):
        # D[:, c, i, j] is d_{z^c} Omega_ij, then d_{w^c} Omega_ij
        rule = contour(partial(moved, block), (Zp, Wp)[block][k, c])
        D, bar = (rule.modes[m].reshape(K, n, n, n) for m in (1, -1))
        closed = max(closed, float(np.abs(D - D.transpose(swap)).max()))
        anti = max(anti, float(np.abs(bar).max()))
        rounding, alias = max(rounding, rule.rounding), max(alias, rule.alias)
    return closed, anti, rule._replace(rounding=2.0 * rounding, alias=alias)
