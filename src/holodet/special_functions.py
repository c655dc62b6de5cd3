"""The Dedekind eta function on H and the modular reduction of its argument.

Conventions used throughout the library:

* principal branch: Arg in (-pi, pi];
* upper half plane H: Im(z) > 0;
* nome q = exp(2*pi*i*z), so |q| = exp(-2*pi*Im(z)) < 1 on H;
* eta(z) = q^(1/24) * prod_{n>=1} (1 - q^n), with q^(1/24) read as
  exp(pi*i*z/12).

There is one reduction, written twice: ``reduce`` moves one point in exact
Python integers, and ``reduce_array`` makes the same moves on an array of
points in int64 under a mask, so that gamma and u agree and z_c agrees to
a few ulps (CPython's and numpy's complex divisions may differ in the last
bit).  ``dedekind_sum`` likewise runs Euclid on Python integers or, on
arrays, under a mask.  One point costs the scalar body 2-5 microseconds
and the masked loop 40-200, so anything but an ndarray keeps the scalar body.
There is one eta path, ``log_eta``, on a point or an array: the
canonical branch pi*i*z/12 + sum_n Log(1 - q^n), analytic on all of H, read
at the reduced point z_c = gamma z by the transformation law (Apostol,
*Modular Functions and Dirichlet Series*, Thm 3.4), for c > 0

    log eta(z) = Log P(q) - pi i/(12 c u) - Log(-i u)/2 + pi i (s(d, c) - d/(12 c)),

with u = c z + d, q = exp(2 pi i z_c), s the Dedekind sum and P(q) = 1 - q -
q^2 + q^5 + q^7 Euler's pentagonal series, which drops less than
|q|^12 < 1e-28 at Im z_c >= sqrt(3)/2.  ``eta`` is exp(log_eta), and
``closed_form_log_det`` in ``torus_spectral`` uses 2 Re log_eta, so neither
underflows near a cusp.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BudgetError, DomainError

_TWO_PI_I, _PI_I_12 = 2j * math.pi, 1j * math.pi / 12.0


def require_upper_half(z):
    """Validate that z is finite with Im(z) > 0 and return it as complex.

    A point comes back as a complex number; an ndarray as a complex array,
    and the DomainError names its first offending point.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        if not z.imag > 0.0:
            raise DomainError(f"Im(z) must be positive, got {z!r}")
        return z
    z = np.asarray(z, dtype=complex)
    for bad, rule in ((~np.isfinite(z), "z must be finite"),
                      (~(z.imag > 0.0), "Im(z) must be positive")):
        if bad.any():
            raise DomainError(f"{rule}, got {_first(z, bad)!r}")
    return z


def _first(z: np.ndarray, bad: np.ndarray) -> complex:
    """The first point of z where ``bad`` holds."""
    return complex(z.ravel()[np.argmax(bad.ravel())])


def reduce(z: complex):
    """((a, b, c, d), u, z_c): gamma in SL(2, Z) with c > 0 (or c = 0, d = 1), u = c z + d.

    z_c = gamma z lies in F (|Re| <= 1/2, |z| >= 1).  Each move z -> -1/z is
    multiplied into gamma and followed by one map of z itself, with Re u =
    c x + d rounded once, so every z -> z - k is chosen at a point within a
    few ulps of the exact image.  BudgetError once c reaches 2^26 or z_c
    overflows (below height ~1e-15).
    """
    z = require_upper_half(z)
    shift = math.floor(z.real + 0.5)
    w = z - shift  # exact
    x = w.real
    a, b, c, d, u = 1, 0, 0, 1, 1 + 0j  # the moves so far, acting on z - shift
    for _ in range(600):  # each pass lifts Im w; ~550 lift 5e-324 into F
        if c:
            if c < 0:
                a, b, c, d = -a, -b, -c, -d
            hi = 134217729.0 * x  # Dekker's split: c hi and c (x - hi) are exact for c < 2^26
            hi -= hi - x
            u = complex((c * hi + d) + c * (x - hi), c * z.imag)
            w = a % c / c - 1.0 / (c * u)  # a cancels from z_c = a/c - 1/(c u)
            if not (c < 1 << 26 and cmath.isfinite(w)):
                raise BudgetError(f"modular reduction of {z!r} needs c >= 2^26 or overflows")
            k = math.floor(w.real + 0.5)
            w -= k
            a = a % c - k * c
            b = (a * d - 1) // c
        if abs(w) >= 1.0 - 1e-12:  # in F up to rounding
            return (a, b - a * shift, c, d - c * shift), u, w
        w = -1.0 / w
        a, b, c, d = -c, -d, a, b
    raise BudgetError("modular reduction did not converge")


@np.errstate(all="ignore")  # every inf or nan becomes a BudgetError
def reduce_array(z):
    """``reduce``'s moves on an array of points: ((a, b, c, d), shift, u, z_c).

    gamma = (a, b, c, d), int64 arrays, acts on z - shift, where shift =
    floor(Re z + 1/2) is a float array kept out of int64: ``reduce``'s gamma is
    (a, b - a shift, c, d - c shift), and u and z_c are its u and z_c (z_c to
    a few ulps).  Each pass moves, under a mask, the points not yet in F.
    BudgetError names the first point that needs c >= 2^26 or overflows, as
    in ``reduce``, or whose gamma would pass int64, which takes a height
    below about 1e-18 next to a cusp.
    """
    z = require_upper_half(z)
    shift = np.floor(z.real + 0.5)
    w = z - shift  # exact
    x, y = w.real, z.imag
    a, b, c, d = (np.full(z.shape, v, np.int64) for v in (1, 0, 0, 1))
    u = np.ones(z.shape, complex)
    live = np.ones(z.shape, bool)  # the points not yet in F
    for _ in range(600):
        moved = live & (c != 0)  # reduce's `if c:`
        if moved.any():
            sign = np.where(c < 0, -1, 1)
            a, b, c, d = sign * a, sign * b, sign * c, sign * d
            cm = np.where(moved, c, 1)
            hi = 134217729.0 * x  # Dekker's split, as in reduce
            hi -= hi - x
            mu = ((cm * hi + d) + cm * (x - hi)).astype(complex)
            mu.imag = cm * y
            mw = a % cm / cm - 1.0 / (cm * mu)
            k = np.where(moved, np.floor(mw.real + 0.5), 0.0)
            fail = moved & ~((c < 1 << 26) & np.isfinite(mw) & (np.abs(k) * (c + np.abs(d)) < 2.0 ** 61))
            if fail.any():
                raise BudgetError(f"modular reduction of {_first(z, fail)!r} "
                                  "needs c >= 2^26, overflows or leaves int64")
            k = k.astype(np.int64)
            r = a % cm
            a = np.where(moved, r - k * cm, a)
            b = np.where(moved, (r * d - 1) // cm - k * d, b)  # (a d - 1) // c within int64
            u = np.where(moved, mu, u)
            w = np.where(moved, mw - k, w)
        live &= np.abs(w) < 1.0 - 1e-12  # in F up to rounding
        if not live.any():
            return (a, b, c, d), shift, u, w
        w = np.where(live, -1.0 / w, w)
        a, b, c, d = np.where(live, [-c, -d, a, b], [a, b, c, d])
    raise BudgetError("modular reduction did not converge")


def dedekind_sum(d, c):
    """12 c s(d, c), an integer, for c > 0 and gcd(d, c) = 1; s is the Dedekind sum.

    Reciprocity, s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4, run along
    Euclid on (c, h = d mod c) telescopes to h + t + c (k_0 - k_1 + ... - 3 [n odd])
    over the n quotients k_j, with t h = 1 mod c the Bezout coefficient.
    On Python integers Euclid runs exactly; on int64 arrays each step moves,
    under a mask, the pairs whose remainder is not yet 0.
    """
    if isinstance(d, np.ndarray) or isinstance(c, np.ndarray):
        return _dedekind_sums(*np.broadcast_arrays(np.asarray(d, np.int64), np.asarray(c, np.int64)))
    h = d % c
    r0, r1, t0, t1, alternating, sign = c, h, 0, 1, 0, 1
    while r1:
        k = r0 // r1
        alternating += sign * k
        sign = -sign
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return h + t0 + c * (alternating - 3 * (sign < 0))


def _dedekind_sums(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    h = d % c
    r0, r1, t0, t1 = c, h, np.zeros_like(c), np.ones_like(c)
    alternating, odd = np.zeros_like(c), np.zeros(c.shape, bool)
    while (live := r1 != 0).any():
        k = np.where(live, r0 // np.where(live, r1, 1), 0)
        alternating += np.where(odd, -k, k)
        odd ^= live
        r0, r1, t0, t1 = np.where(live, [r1, r0 - k * r1, t1, t0 - k * t1], [r0, r1, t0, t1])
    return h + t0 + c * (alternating - 3 * odd)


def log_eta(z):
    """Canonical branch of log(eta) on H, read at ``reduce``'s z_c (see the module docstring).

    For c = 0 it is pi i z/12 + Log P(q).  On an ndarray it is read at
    ``reduce_array``'s z_c, elementwise.  BudgetError if the reduction or
    the value overflows.
    """
    if isinstance(z, np.ndarray):
        return _log_eta_array(z)
    (a, b, c, d), u, zc = reduce(z)
    q = cmath.exp(_TWO_PI_I * zc)
    q2 = q * q
    value = cmath.log(1.0 - q - q2 + q2 * q2 * q * (1.0 + q2))
    if c == 0:
        value += _PI_I_12 * (zc - b)  # zc - b = z exactly
    else:
        phase = (dedekind_sum(d, c) - d) / c if c > 1 else -d  # s(d, 1) = 0
        value += _PI_I_12 * (phase - 1.0 / (c * u)) - 0.5 * cmath.log(-1j * u)
    if not cmath.isfinite(value):
        raise BudgetError(f"log_eta({z!r}) overflows")
    return value


@np.errstate(all="ignore")  # a non-finite value is a BudgetError
def _log_eta_array(z) -> np.ndarray:
    (a, b, c, d), shift, u, zc = reduce_array(z)
    z = np.asarray(z, dtype=complex)
    q = np.exp(_TWO_PI_I * zc)
    q2 = q * q
    value = np.log(1.0 - q - q2 + q2 * q2 * q * (1.0 + q2))
    top = c == 0  # gamma = T^-shift, and zc + shift = z exactly
    c = np.where(top, 1, c)
    # (12 c s(d', c) - d')/c for d' = d - c shift, with one rounding while |c shift| < 2^53
    phase = ((dedekind_sum(d, c) - d) + c * shift) / c
    value += np.where(top, _PI_I_12 * z,
                      _PI_I_12 * (phase - 1.0 / (c * u)) - 0.5 * np.log(-1j * u))
    bad = ~np.isfinite(value)
    if bad.any():
        raise BudgetError(f"log_eta({_first(z, bad)!r}) overflows")
    return value


def eta(z: complex) -> complex:
    """Dedekind eta function on the upper half plane: exp(log_eta(z))."""
    return cmath.exp(log_eta(z))
