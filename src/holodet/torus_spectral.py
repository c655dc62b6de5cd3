"""Flat-torus Laplacian: heat trace and zeta-regularized determinant.

The torus with modulus z in H is C/(Z + zZ) with the flat metric inherited
from C (area y = Im z).  Its Laplace spectrum is the dual-lattice family

    lambda_{m,n} = 4 pi^2 (m^2 + (n - m x)^2 / y^2),   (m, n) in Z^2,

with the zero mode at (0,0).

``zeta_log_det`` evaluates log det'(Delta) = -zeta'(0) by the split-integral
method: Gamma(s) zeta(s) = int_0^s0 t^{s-1} (Theta(t) - 1) dt + int_{s0}^inf,
with the divergent small-t part (A/4pi t - 1) integrated in closed form and
the exponentially small remainders integrated numerically on a log grid.
The modulus is first reduced to the fundamental domain by ``reduce``; the unit
translation and the inversion z -> -1/z act on the lattice by similarities,
and the determinant is reported for the canonical representative so that the
result is invariant under both generators.  One routine, ``_theta_sums``,
evaluates the heat trace at an array of times, as the hybrid theta sum of
Kronecker's limit formula (direct in m, Poisson-summed in n; Chowla-Selberg,
J. reine angew. Math. 227, 1967): each of its 1-D sums carries a certified
tail bound, so the oracle holds at every height.  Each half of the numeric
t-integral is one call.  The split time, quadrature order, box cap and tail
target are module constants.  Above height 1e4 the absolute error, about
1e-14 of |log det'| ~ pi y / 3, passes 1e-10.

Reach: the route gives a value up to reduced height about 10^153.5, within
1e-13 relative of the closed form.  Above it a theta box cannot reach its
tail target within ``LATTICE_RADIUS`` (the lowest eigenvalue 4 pi^2 / y^2
underflows near 1.3e154), and ``zeta_log_det`` raises BudgetError: a typed,
documented limit, where ``closed_form_log_det`` still returns a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .special_functions import log_eta, reduce, require_upper_half

FOUR_PI_SQ = 4.0 * math.pi ** 2

#: The split-integral's fixed settings: the split time s0, the Gauss-Legendre
#: order of each half, the cap on each 1-D box of the theta sum (a sum that
#: needs more terms raises BudgetError) and the target of the tail bound.
SPLIT_TIME = 1.0
QUADRATURE_NODES = 64
LATTICE_RADIUS = 64
TAIL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SpectralDetResult:
    """log det'(Delta) with its zeta(0) diagnostic and tail certificate."""

    log_det: float
    zeta_zero: float
    tail_bound: float
    modulus: complex  # canonical representative actually used


#: Terms below 2^-53 of a sum's first term are dropped, whatever the tail
#: bound allows: each node's value is then accurate relative to itself.
_RELATIVE_EXPONENT = 53.0 * math.log(2.0)


def _box(a: np.ndarray, first: np.ndarray, coef: np.ndarray, target, cap: int):
    """One box N for the 1-D sums coef * sum_{n=first}^{N} exp(-a n^2), one per row and node.

    N is the largest size at which a tail bound coef exp(-a (N+1)^2) / (1 -
    exp(-a)) reaches ``target`` or a term 2^-53 of the first.  Returns N and
    every tail at N; raises BudgetError past ``cap``.
    """
    gap = -np.expm1(-a)  # 1 - exp(-a)
    size = np.maximum(np.sqrt(np.log1p(coef / (target * gap)) / a),
                      np.sqrt(first * first + _RELATIVE_EXPONENT / a))
    n = float(np.ceil(size).max()) - 1.0
    if not n <= cap:  # also catches a -> 0, where the bound is infinite
        raise BudgetError("lattice sum tail cannot reach tolerance within radius cap")
    n = int(n)
    return n, coef * np.exp(-a * (n + 1) ** 2) / gap


def _theta_sums(z: complex, ts, poisson: bool):
    """Theta(t) less its origin term at every t of ``ts``, with tail bounds.

    z must satisfy |Re z| <= 1/2, as the z_c of ``reduce`` does.

    Direct: Theta(t) - 1; Poisson (``poisson``): Theta(t) - A/(4 pi t).  Both
    sum Theta(t) = amp sum_{m,k} g_m g_k cos(2 pi k m x), amp = y/sqrt(4 pi t),
    g_m = exp(-4 pi^2 t m^2), g_k = exp(-k^2 y^2/4t), as one matmul per call
    with the cosine table shared by every node.  The origin's part is split
    off without cancellation: Poisson sums the k = 0 column less A/(4 pi t)
    as (A/4 pi t) 2 sum_{j>=1} exp(-j^2/4t); direct sums the m = 0 row less 1
    directly when 4 pi^2 t/y^2 >= pi, else as amp (1 + 2 sum_{k>=1} g_k) - 1.
    """
    x, y = z.real, z.imag
    ts = np.asarray(ts, dtype=float)
    amp = y / np.sqrt(4.0 * math.pi * ts)
    pref = y / (4.0 * math.pi * ts)
    # rows: the sum along the origin's row or column, the sum over m, over k;
    # first: the index of each sum's first term
    a = np.empty((3, ts.size))
    a[1] = FOUR_PI_SQ * ts
    a[2] = y * y / (4.0 * ts)
    # tail coefficients from sum_{n>=1} exp(-a n^2) <= sqrt(pi/a)/2, so that
    # amp (1 + 2 sum_k g_k) <= amp + 1 and amp (1 + 2 sum_m g_m) <= amp + pref
    coef = np.empty((3, ts.size))
    coef[2] = 2.0 * (amp + pref)
    if poisson:
        a[0], coef[0], coef[1] = 1.0 / (4.0 * ts), 2.0 * pref, 2.0
        first = np.array([[1], [0], [1]])
        target = TAIL_TOLERANCE * np.minimum(pref, 1.0) / 3.0
    else:
        direct_row = a[1] >= math.pi * y * y
        a[0] = np.where(direct_row, a[1] / (y * y), np.inf)  # inf: no direct terms
        coef[0], coef[1] = 2.0, 2.0 * (amp + 1.0)
        first = np.array([[1], [1], [0]])
        target = TAIL_TOLERANCE / 3.0
    n, tails = _box(a, first, coef, target, LATTICE_RADIUS)

    j = np.arange(1.0, n + 1.0)
    g = np.exp(-a[:, :, None] * (j * j))  # g[r, node, j - 1] = exp(-a[r] j^2)
    sums = g.sum(axis=2)
    cos = np.cos(2.0 * math.pi * x * np.outer(j, j))
    # the k != 0 columns (Poisson) or m != 0 rows (direct), k = 0 / m = 0 entries first
    cross = sums[2 if poisson else 1] + 2.0 * ((g[1] @ cos) * g[2]).sum(axis=1)
    values = coef[0] * sums[0] + 2.0 * amp * cross
    if not poisson:
        values += np.where(direct_row, 0.0, (amp - 1.0) + 2.0 * amp * sums[2])
    return values, tails.sum(axis=0)


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


# Past reduced height about 1e153 the box terms overflow; the budget tests turn
# every inf or nan into BudgetError, so numpy's warnings about them are noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def zeta_log_det(z: complex) -> SpectralDetResult:
    """log det'(Delta) = -zeta'(0) for the flat torus of modulus z.

    The modulus is reduced to the fundamental domain first (see module
    docstring), so the result is invariant under z -> z + 1 and z -> -1/z.
    The closed-form small-t part fixes zeta(0) = -1 exactly; the reported
    ``zeta_zero`` diagnostic instead measures the constant heat-trace
    coefficient numerically, so it carries real information about the
    pipeline (it must come out as -1 + O(tail)).
    """
    zc = reduce(z)[2]
    y = zc.imag
    s0 = SPLIT_TIME
    # the shortest lattice vector of a fundamental-domain modulus has length 1; the cut
    # below t_min carries y e^{-1/(4 t_min)} (split logs: log(1e12 y) overflows at 1.8e296)
    t_min = min(1.0 / 180.0, 0.25 / (math.log(1e12) + math.log(y)))

    # Remainder R(t) = Theta(t) - A/(4 pi t) at t_min and at the nodes of
    # int_{t_min}^{s0} R(t)/t dt, log substitution t = e^u
    us, ws = _gl_nodes(math.log(t_min), math.log(s0), QUADRATURE_NODES)
    r_vals, r_tails = _theta_sums(zc, np.concatenate(([t_min], np.exp(us))), poisson=True)
    s_small, s_small_tail = r_vals[0], r_tails[0]

    # cutoff bound for int_0^{t_min} R(t)/t dt
    s0_sum = s_small * (4.0 * math.pi * t_min) / y  # lattice sum without prefactor
    cut_low = y * (s0_sum + 1e-300) / math.pi

    tail_total = cut_low + s_small_tail
    i_low = np.dot(ws, r_vals[1:])
    tail_total += np.dot(np.abs(ws), r_tails[1:])

    # upper cutoff T_max from the certified decay of Theta(t) - 1
    lam1 = FOUR_PI_SQ * min(1.0, 1.0 / (y * y))
    (theta_s0,), (theta_s0_tail,) = _theta_sums(zc, [s0], poisson=False)
    m_b = (theta_s0 + theta_s0_tail) * math.exp(lam1 * s0)
    t_max = 2.0 * s0
    for _ in range(2000):  # t_max grows like y^2: 2000 steps of x1.5 pass 1e300
        if m_b * math.exp(-lam1 * t_max) / (lam1 * t_max) <= TAIL_TOLERANCE / 10.0:
            break
        t_max *= 1.5
    cut_high = m_b * math.exp(-lam1 * t_max) / (lam1 * t_max)
    tail_total += cut_high + theta_s0_tail

    # int_{s0}^{T_max} (Theta(t) - 1)/t dt, same log substitution
    us, ws = _gl_nodes(math.log(s0), math.log(t_max), QUADRATURE_NODES)
    vals, tails = _theta_sums(zc, np.exp(us), poisson=False)
    i_high = np.dot(ws, vals)
    tail_total += np.dot(np.abs(ws), tails)

    if not tail_total <= TAIL_TOLERANCE * 10.0:  # a nan bound fails too
        raise BudgetError(f"aggregate tail bound {tail_total:.3e} exceeds budget")

    h0 = i_low + i_high
    log_det = np.euler_gamma + math.log(s0) + y / (4.0 * math.pi * s0) - h0

    # zeta(0) diagnostic: measured constant term of the heat expansion minus
    # the zero-mode count; the flat torus has no constant term.
    zeta_zero = s_small - 1.0

    return SpectralDetResult(float(log_det), float(zeta_zero), float(tail_total), zc)


def closed_form_log_det(z):
    """log(2 pi y^{1/2} |eta(z)|^2), the classical closed-form expression.

    A float at a point; an array of them, from one ``log_eta`` call, at an
    array of points.  Note this normalization and the spectral y^2 |eta|^4
    one differ; the verification suite measures which one the spectral
    oracle matches instead of hardcoding either (see ``holodet.verify``).
    """
    z = require_upper_half(z)
    log = np.log if isinstance(z, np.ndarray) else math.log
    return math.log(2.0 * math.pi) + 0.5 * log(z.imag) + 2.0 * log_eta(z).real
