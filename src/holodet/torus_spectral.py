"""Flat-torus Laplacian: spectrum, heat trace, and zeta-regularized determinant.

The torus with modulus z in H is C/(Z + zZ) with the flat metric inherited
from C (area y = Im z).  Its Laplace spectrum is the dual-lattice family

    lambda_{m,n} = 4 pi^2 (m^2 + (n - m x)^2 / y^2),   (m, n) in Z^2,

with the zero mode at (0,0).  Re(z) is reduced mod 1 before enumeration;
this leaves the lattice Z + zZ (hence the spectrum) unchanged and makes the
boxed enumeration invariant under z -> z + 1.

``zeta_log_det`` evaluates log det'(Delta) = -zeta'(0) by the split-integral
method: Gamma(s) zeta(s) = int_0^s0 t^{s-1} (Theta(t) - 1) dt + int_{s0}^inf,
with the divergent small-t part (A/4pi t - 1) integrated in closed form and
the exponentially small remainders integrated numerically on a log grid.
The modulus is first reduced to the standard fundamental domain; the unit
translation and the inversion z -> -1/z act on the lattice by similarities,
and the determinant is reported for the canonical representative so that the
result is invariant under both generators.  All lattice sums carry certified
geometric tail bounds.  One routine, ``_theta_sums``, evaluates the heat
trace at an array of times; each half of the t-integral is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError
from .special_functions import canonical_modulus, log_eta, require_upper_half

FOUR_PI_SQ = 4.0 * math.pi ** 2


@dataclass(frozen=True)
class SpectralTruncation:
    """Regularization bookkeeping for heat-trace and zeta evaluations."""

    split_time: float = 1.0
    lattice_radius: int = 64
    quadrature_nodes: int = 64
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        if self.split_time <= 0:
            raise DomainError("split_time must be positive")
        if self.lattice_radius < 1:
            raise DomainError("lattice_radius must be >= 1")
        if self.quadrature_nodes < 2:
            raise DomainError("quadrature_nodes must be >= 2")
        if self.tail_tolerance <= 0:
            raise DomainError("tail_tolerance must be positive")


@dataclass(frozen=True)
class TorusSpectrum:
    modulus: complex
    truncation_radius: int
    eigenvalues: np.ndarray  # sorted ascending; zero mode included once


@dataclass(frozen=True)
class SpectralDetResult:
    """log det'(Delta) with its zeta(0) diagnostic and tail certificate."""

    log_det: float
    zeta_zero: float
    tail_bound: float
    modulus: complex  # canonical representative actually used


def _reduced_x(z: complex) -> float:
    return z.real - math.floor(z.real + 0.5)


def torus_eigenvalues(z: complex, radius: int) -> TorusSpectrum:
    """All lambda_{m,n} for |m|, |n| <= radius, sorted ascending."""
    z = require_upper_half(z)
    radius = int(radius)
    if radius < 1:
        raise DomainError("radius must be >= 1")
    x, y = _reduced_x(z), z.imag
    idx = np.arange(-radius, radius + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    lam = FOUR_PI_SQ * (m ** 2 + (n - m * x) ** 2 / y ** 2)
    lam = np.sort(lam.ravel())
    return TorusSpectrum(z, radius, lam)


#: Most terms one padded lattice batch may hold (8 bytes each); a longer node
#: list is split so the working set stays near this size.
LATTICE_BATCH_TERMS = 1 << 16


def _gauss_tail(a: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Bound for sum_{k>=0} exp(-a (start+k)^2), elementwise; start >= 0, a > 0."""
    e0 = a * start * start
    r = np.exp(-a * (2.0 * start + 1.0))
    with np.errstate(divide="ignore"):  # r == 1 for a -> 0: an infinite bound
        return np.where(e0 > 700.0, 0.0, np.exp(-e0) / (1.0 - r))


def _lattice_boxes(a_out: np.ndarray, a_in: np.ndarray, target, cap: int):
    """Box radii J, K and certified tail bounds of each node's lattice sum.

    The sum is over (j,k) in Z^2 of exp(-a_out j^2 - a_in (k - j x)^2) with
    |x| <= 1/2; |j| <= J and |k| <= K leave a tail below ``target``.  Raises
    BudgetError when some node needs J > cap or K > 2 cap.
    """
    s_in_all = 1.0 + np.sqrt(np.pi / a_in)
    guess = np.ceil(np.sqrt(np.maximum(np.log(4.0 * s_in_all / target), 1.0) / a_out))
    J = np.clip(guess, 1, cap).astype(int)
    while True:
        t_out = 2.0 * s_in_all * _gauss_tail(a_out, J + 1)
        grow = t_out > 0.5 * target
        if not grow.any():
            break
        J = np.where(grow, J + np.maximum(1, J // 4), J)
        if (J > cap).any():
            raise BudgetError("lattice sum tail cannot reach tolerance within radius cap")

    s_out_box = 1.0 + 2.0 * _gauss_tail(a_out, 1.0)
    guess = np.ceil(0.5 * J + np.sqrt(np.maximum(np.log(4.0 * s_out_box / target), 1.0) / a_in))
    K = np.clip(guess, 1, 2 * cap).astype(int)
    while True:
        t_in = 2.0 * s_out_box * _gauss_tail(a_in, np.maximum(K + 1 - 0.5 * J, 0.5))
        grow = t_in > 0.5 * target
        if not grow.any():
            break
        K = np.where(grow, K + np.maximum(1, K // 4), K)
        if (K > 2 * cap).any():
            raise BudgetError("lattice sum tail cannot reach tolerance within radius cap")
    return J, K, t_out + t_in


def _theta_sums(z: complex, ts, trunc: SpectralTruncation, poisson: bool):
    """Theta(t) less its origin term at every t of ``ts``, with tail bounds.

    Direct: sum over the nonzero eigenvalues of exp(-t lambda) = Theta(t) - 1.
    Poisson (``poisson``): (A/4 pi t) sum over u != 0 in Z+zZ of
    exp(-|u|^2/4t) = Theta(t) - A/(4 pi t), without cancellation.
    Each node keeps its own box; the nodes are summed together in one
    buffer padded to the largest box, split at LATTICE_BATCH_TERMS terms.
    """
    x, y = _reduced_x(z), z.imag
    ts = np.asarray(ts, dtype=float)
    if poisson:
        pref = y / (4.0 * math.pi * ts)
        a_out = y * y / (4.0 * ts)   # coefficient of q^2 in |p + q z|^2
        a_in = 1.0 / (4.0 * ts)      # coefficient of (p + q x)^2
        target = trunc.tail_tolerance / np.maximum(pref, 1.0)
        x = -x
    else:
        pref = 1.0
        a_out = FOUR_PI_SQ * ts            # coefficient of m^2
        a_in = FOUR_PI_SQ * ts / (y * y)   # coefficient of (n - m x)^2
        target = trunc.tail_tolerance
    J, K, tail = _lattice_boxes(a_out, a_in, target, trunc.lattice_radius)

    rows, cols = 2 * J + 1, 2 * K + 1
    sums = np.empty(ts.shape)
    lo = 0
    while lo < ts.size:
        # a batch's padded size grows with its length: cut before the budget
        size = (np.arange(1, ts.size - lo + 1) * np.maximum.accumulate(rows[lo:])
                * np.maximum.accumulate(cols[lo:]))
        hi = lo + max(1, int(np.searchsorted(size, LATTICE_BATCH_TERMS, side="right")))
        Jm, Km = int(J[lo:hi].max()), int(K[lo:hi].max())
        j = np.arange(-Jm, Jm + 1, dtype=float)
        k = np.arange(-Km, Km + 1, dtype=float)
        d = k[None, :] - j[:, None] * x
        # expo[i, j, k] = a_out j^2 + a_in (k - j x)^2, +inf outside node i's box
        expo = np.multiply.outer(a_in[lo:hi], d * d)
        outside = np.abs(j) > J[lo:hi, None]
        expo += np.where(outside, np.inf, np.multiply.outer(a_out[lo:hi], j * j))[:, :, None]
        expo += np.where(np.abs(k) > K[lo:hi, None], np.inf, 0.0)[:, None, :]
        expo[:, Jm, Km] = np.inf  # the origin term
        np.negative(expo, out=expo)
        np.exp(expo, out=expo)
        sums[lo:hi] = expo.sum(axis=(1, 2))
        lo = hi
    return pref * sums, pref * tail


def heat_trace(z: complex, t: float, trunc: SpectralTruncation | None = None,
               method: str = "auto") -> float:
    """Heat trace Theta(t) = sum over the spectrum of exp(-t lambda).

    For t below ``trunc.split_time`` the Poisson-summed form is used, above
    it the direct eigenvalue sum; ``method`` may force either path.  The
    certified truncation tail is kept below ``trunc.tail_tolerance``.
    """
    z = require_upper_half(z)
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    trunc = trunc or SpectralTruncation()
    if method == "auto":
        method = "poisson" if t < trunc.split_time else "direct"
    if method not in ("direct", "poisson"):
        raise DomainError(f"unknown method {method!r}")
    poisson = method == "poisson"
    (value,), (tail,) = _theta_sums(z, [t], trunc, poisson)
    if tail > trunc.tail_tolerance:
        raise BudgetError(f"heat trace tail bound {tail:.3e} exceeds tolerance")
    origin = z.imag / (4.0 * math.pi * t) if poisson else 1.0
    return float(value + origin)


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = ws.flags.writeable = False  # shared by every caller
    return xs, ws


def _gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights of order n on [a, b].

    The library's one quadrature rule: the spectral t-integrals and the
    cone cells of ``potential_builder`` map the reference rule, which is
    computed once per order.
    """
    xs, ws = _gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (xs + 1.0), half * ws


def _shortest_vector_sq(z: complex) -> float:
    best = math.inf
    for p in (-1, 0, 1):
        for q in (-1, 0, 1):
            if p == 0 and q == 0:
                continue
            best = min(best, abs(p + q * z) ** 2)
    return best


def zeta_log_det(z: complex, trunc: SpectralTruncation | None = None) -> SpectralDetResult:
    """log det'(Delta) = -zeta'(0) for the flat torus of modulus z.

    The modulus is reduced to the fundamental domain first (see module
    docstring), so the result is invariant under z -> z + 1 and z -> -1/z.
    The closed-form small-t part fixes zeta(0) = -1 exactly; the reported
    ``zeta_zero`` diagnostic instead measures the constant heat-trace
    coefficient numerically, so it carries real information about the
    pipeline (it must come out as -1 + O(tail)).
    """
    trunc = trunc or SpectralTruncation()
    zc = canonical_modulus(z)
    y = zc.imag
    area = y
    s0 = trunc.split_time
    n_gl = trunc.quadrature_nodes

    ell_sq = _shortest_vector_sq(zc)  # = 1 on the fundamental domain
    t_min = ell_sq / 180.0

    # Remainder R(t) = Theta(t) - A/(4 pi t) at t_min and at the nodes of
    # int_{t_min}^{s0} R(t)/t dt, log substitution t = e^u
    us, ws = _gl_nodes(math.log(t_min), math.log(s0), n_gl)
    r_vals, r_tails = _theta_sums(zc, np.concatenate(([t_min], np.exp(us))), trunc, poisson=True)
    s_small, s_small_tail = r_vals[0], r_tails[0]

    # cutoff bound for int_0^{t_min} R(t)/t dt
    s0_sum = s_small * (4.0 * math.pi * t_min) / y  # lattice sum without prefactor
    cut_low = area * (s0_sum + 1e-300) / (math.pi * ell_sq)

    tail_total = cut_low + s_small_tail
    i_low = np.dot(ws, r_vals[1:])
    tail_total += np.dot(np.abs(ws), r_tails[1:])

    # upper cutoff T_max from the certified decay of Theta(t) - 1
    lam1 = FOUR_PI_SQ * min(1.0, 1.0 / (y * y))
    (theta_s0,), (theta_s0_tail,) = _theta_sums(zc, [s0], trunc, poisson=False)
    m_b = (theta_s0 + theta_s0_tail) * math.exp(lam1 * s0)
    t_max = 2.0 * s0
    for _ in range(400):
        if m_b * math.exp(-lam1 * t_max) / (lam1 * t_max) <= trunc.tail_tolerance / 10.0:
            break
        t_max *= 1.5
    cut_high = m_b * math.exp(-lam1 * t_max) / (lam1 * t_max)
    tail_total += cut_high + theta_s0_tail

    # int_{s0}^{T_max} (Theta(t) - 1)/t dt, same log substitution
    us, ws = _gl_nodes(math.log(s0), math.log(t_max), n_gl)
    vals, tails = _theta_sums(zc, np.exp(us), trunc, poisson=False)
    i_high = np.dot(ws, vals)
    tail_total += np.dot(np.abs(ws), tails)

    if tail_total > trunc.tail_tolerance * 10.0:
        raise BudgetError(f"aggregate tail bound {tail_total:.3e} exceeds budget")

    h0 = i_low + i_high
    log_det = np.euler_gamma + math.log(s0) + area / (4.0 * math.pi * s0) - h0

    # zeta(0) diagnostic: measured constant term of the heat expansion minus
    # the zero-mode count; the flat torus has no constant term.
    zeta_zero = s_small - 1.0

    return SpectralDetResult(float(log_det), float(zeta_zero), float(tail_total), zc)


def closed_form_log_det(z: complex) -> float:
    """log(2 pi y^{1/2} |eta(z)|^2), the classical closed-form expression.

    Note this normalization and the spectral y^2 |eta|^4 one differ; the
    verification suite measures which one the spectral oracle matches
    instead of hardcoding either (see ``holodet.verify``).
    """
    z = require_upper_half(z)
    return math.log(2.0 * math.pi) + 0.5 * math.log(z.imag) + 2.0 * log_eta(z).real
