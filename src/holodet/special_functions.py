"""The Dedekind eta function on H and the modular reduction of its argument.

Conventions used throughout the library:

* principal branch: Arg in (-pi, pi];
* upper half plane H: Im(z) > 0;
* nome q = exp(2*pi*i*z), so |q| = exp(-2*pi*Im(z)) < 1 on H;
* eta(z) = q^(1/24) * prod_{n>=1} (1 - q^n), with q^(1/24) read as
  exp(pi*i*z/12).

There is one reduction, ``reduce``, and one Euclid, ``dedekind_sum``, both
on exact Python integers.  There is one eta path, ``log_eta``, on a point
or an array: the canonical branch pi*i*z/12 + sum_n Log(1 - q^n), analytic
on all of H, read through the transformation law (Apostol, *Modular
Functions and Dirichlet Series*, Thm 3.4): for gamma in SL(2, Z) with
bottom row (c, d), c > 0,

    log eta(z) = Log P(q) - pi i/(12 c u) - Log(-i u)/2 + pi i (s(d, c) - d/(12 c)),

with u = c z + d, q = exp(2 pi i gamma z), s the Dedekind sum and P(q) = 1 - q
- q^2 + q^5 + q^7 Euler's pentagonal series, which drops less than |q|^12 <
1e-28 at Im gamma z >= sqrt(3)/2.  The law reads only c, d, u and gamma z
mod 1 = (a mod c)/c - 1/(c u), and it holds for every gamma, not only for
the point's own reduction: any gamma that lifts z to height sqrt(3)/2 will
do.  Its constant term over pi i/12 is (12 c s(d, c) - d)/c.  At a
point ``log_eta`` reads ``reduce``'s gamma.  On an array it reads each point
z at its own point x + iy = z - n of the unit cell, n = round(Re z): a
row (c, d) that lifts x lifts z too, by gamma with the row (c, d - c n),
whose numerator is 12 c s(d, c) - d + c n, since s(d, c) depends on d mod c
only (log eta(z + n) = log eta(z) + pi i n/12).  So one row serves matching
points in every unit cell: it reduces the x of one point not yet lifted,
applies that row to the x of all the rest and keeps every point it lifts,
until none is left; points of one disc share their few rows, and a row reads
only the points still left.  A point equal to an earlier one is lifted by the
same row, so it seeds none, and its value has the earlier one's bits.  The
law then runs only at the points a row lifted; a point already at height
sqrt(3)/2 takes c = 0, pi i z/12 + Log P(q), and an array of such points
takes no row.  ``eta`` is exp(log_eta), on a point or an array, and
``closed_form_log_det`` in ``torus_spectral`` uses 2 Re log_eta, so neither
underflows near a cusp.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BudgetError, DomainError

_TWO_PI_I, _PI_I_12 = 2j * math.pi, 1j * math.pi / 12.0

#: Im z >= _LIFTED |c z + d|^2 counts as lifted to height sqrt(3)/2.  The
#: margin is far above rounding and far below what P(q) can bear, and every
#: point below it lies outside ``reduce``'s F, so ``reduce`` gives it c > 0.
_LIFTED = math.sqrt(3) / 2 - 1e-11


def as_complex(z, name: str = "z"):
    """A point as a complex number, an ndarray of numbers as a complex array.

    Anything else, a string, None or a list among them, is a DomainError that
    names it; only the conversion is checked.
    """
    try:
        if isinstance(z, np.ndarray):
            if z.dtype.kind in "biufc":
                return np.asarray(z, dtype=complex)
        elif not isinstance(z, (str, bytes)):
            return complex(z)
    except (TypeError, ValueError):  # not a number
        pass
    raise DomainError(f"{name} must be a complex number or an ndarray of them, got {z!r}")


def require_upper_half(z):
    """Validate that z is finite with Im(z) > 0 and return it as complex.

    A point comes back as a complex number; an ndarray as a complex array,
    and the DomainError names its first offending point.  Anything else is
    ``as_complex``'s DomainError.
    """
    z = as_complex(z)
    if not isinstance(z, np.ndarray):
        if not cmath.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        if not z.imag > 0.0:
            raise DomainError(f"Im(z) must be positive, got {z!r}")
        return z
    for bad, rule in ((~np.isfinite(z), "z must be finite"),
                      (~(z.imag > 0.0), "Im(z) must be positive")):
        if bad.any():
            raise DomainError(f"{rule}, got {_first(z, bad)!r}")
    return z


def _first(z: np.ndarray, bad: np.ndarray) -> complex:
    """The first point of z where ``bad`` holds."""
    return complex(z.ravel()[np.argmax(bad.ravel())])


def _nearest(x: float) -> int:
    """floor(x + 1/2), exactly: x + 1/2 itself rounds to even at 2^52 <= |x| < 2^53."""
    n = math.floor(x)
    return n + (x - n >= 0.5)


def reduce(z: complex):
    """((a, b, c, d), u, z_c): gamma in SL(2, Z) with c > 0 (or c = 0, d = 1), u = c z + d.

    z_c = gamma z lies in F (|Re| <= 1/2, |z| >= 1).  Each move z -> -1/z is
    multiplied into gamma and followed by one map of z itself, with Re u =
    c x + d rounded once, so every z -> z - k is chosen at a point within a
    few ulps of the exact image.  BudgetError once c reaches 2^26 or z_c
    overflows (below height ~1e-15).  A 0-d array is the point it holds; an
    array of more dimensions is a DomainError that names its shape.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        raise DomainError(f"z must be one point, got an array of shape {z.shape}")
    z = complex(require_upper_half(z))
    shift = _nearest(z.real)
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
            k = _nearest(w.real)
            w -= k
            a = a % c - k * c
            b = (a * d - 1) // c
        if abs(w) >= 1.0 - 1e-12:  # in F up to rounding
            return (a, b - a * shift, c, d - c * shift), u, w
        w = -1.0 / w
        a, b, c, d = -c, -d, a, b
    raise BudgetError("modular reduction did not converge")


def dedekind_sum(d: int, c: int) -> int:
    """12 c s(d, c), an integer, for c > 0 and gcd(d, c) = 1; s is the Dedekind sum.

    Reciprocity, s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4, run along
    Euclid on (c, h = d mod c) telescopes to h + t + c (k_0 - k_1 + ... - 3 [n odd])
    over the n quotients k_j, with t h = 1 mod c the Bezout coefficient.
    """
    h = d % c
    r0, r1, t0, t1, alternating, sign = c, h, 0, 1, 0, 1
    while r1:
        k = r0 // r1
        alternating += sign * k
        sign = -sign
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return h + t0 + c * (alternating - 3 * (sign < 0))


def _numerator(c: int, d: int) -> int:
    """12 c s(d, c) - d: c times the law's constant term over pi i/12, for the row (c, d), c > 0."""
    return dedekind_sum(d, c) - d


def log_eta(z):
    """Canonical branch of log(eta) on H by the transformation law (see the module docstring).

    At a point it is read at ``reduce``'s z_c; for c = 0 it is
    pi i z/12 + Log P(q).  An ndarray is lifted row by row: each row is
    ``reduce``'s gamma for one point of the unit cell, and it serves every
    point of the array, in any unit cell, that it lifts to height sqrt(3)/2.
    BudgetError if the reduction or the value overflows.
    """
    if isinstance(z, np.ndarray):
        return _log_eta_array(z)
    (a, b, c, d), u, zc = reduce(z)  # reduce checks z
    z = complex(z)
    q = cmath.exp(_TWO_PI_I * zc)
    q2 = q * q
    value = cmath.log(1.0 - q - q2 + q2 * q2 * q * (1.0 + q2))
    if c == 0:
        value += _PI_I_12 * z
    else:
        value += _PI_I_12 * (_numerator(c, d) / c - 1.0 / (c * u)) - 0.5 * cmath.log(-1j * u)
    if not cmath.isfinite(value):
        raise BudgetError(f"log_eta({z!r}) overflows")
    return value


@np.errstate(all="ignore")  # a non-finite value is a BudgetError
def _log_eta_array(z) -> np.ndarray:
    z = require_upper_half(z)
    flat = z.ravel()
    shift = np.floor(flat.real)  # _nearest, elementwise
    shift += flat.real - shift >= 0.5
    zc = flat - shift  # each point's own point x + iy of the unit cell
    law = _PI_I_12 * flat  # Im z >= sqrt(3)/2: no row
    low = np.flatnonzero(flat.imag < _LIFTED)
    if low.size:
        x, y = zc.real[low], flat.imag[low]  # x exact, -1/2 <= x < 1/2
        hi = 134217729.0 * x  # reduce's Dekker split
        hi -= hi - x
        lo = x - hi
        # per point below height sqrt(3)/2: the bottom row (c, d) of a gamma acting on x,
        # its a mod c and the law's numerator 12 c s(d, c) - d
        c, d, a, num = (np.empty(low.size) for _ in range(4))
        left = np.arange(low.size)  # the points no row lifts yet, with their hi, lo and y
        hl, ll, yl = hi, lo, y
        while True:
            (a_k, _, k, d_k), _, _ = reduce(complex(x[left[0]], yl[0]))  # k > 0: below F
            re, yk = (k * hl + d_k) + k * ll, k * yl
            keep = yl >= _LIFTED * (re * re + yk * yk)  # Im gamma z = y/|u|^2
            keep[0] = True  # the seed, which reduce lifted
            lifted = left if keep.all() else left[keep]
            c[lifted], d[lifted], a[lifted], num[lifted] = k, d_k, a_k % k, _numerator(k, d_k)
            if lifted is left:
                break
            rest = ~keep
            left, hl, ll, yl = left[rest], hl[rest], ll[rest], yl[rest]
        # the law at the lifted points, for gamma acting on z = x + shift: its row is
        # (c, d - c shift), so the numerator is num + c shift, exact while |c shift| < 2^53
        u = ((c * hi + d) + c * lo) + 1j * (c * y)
        inv = 1.0 / (c * u)
        zc[low] = a / c - inv
        law[low] = _PI_I_12 * ((num + c * shift[low]) / c - inv) - 0.5 * np.log(-1j * u)
    zc -= np.floor(zc.real + 0.5)
    q = np.exp(_TWO_PI_I * zc)
    q2 = q * q
    value = np.log(1.0 - q - q2 + q2 * q2 * q * (1.0 + q2)) + law
    bad = ~np.isfinite(value)
    if bad.any():
        raise BudgetError(f"log_eta({_first(flat, bad)!r}) overflows")
    return value.reshape(z.shape)


def eta(z):
    """Dedekind eta function on the upper half plane: exp(log_eta(z)), on a point or an ndarray."""
    value = log_eta(z)
    return np.exp(value) if isinstance(value, np.ndarray) else cmath.exp(value)
