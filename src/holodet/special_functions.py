"""The Dedekind eta function on H and the modular reduction of its argument.

Conventions used throughout the library:

* principal branch: Arg in (-pi, pi];
* upper half plane H: Im(z) > 0;
* nome q = exp(2*pi*i*z), so |q| = exp(-2*pi*Im(z)) < 1 on H;
* eta(z) = q^(1/24) * prod_{n>=1} (1 - q^n), with q^(1/24) read as
  exp(pi*i*z/12).

There is one reduction, ``reduce``, and one eta path, ``log_eta``: the
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

from .errors import BudgetError, DomainError

_TWO_PI_I, _PI_I_12 = 2j * math.pi, 1j * math.pi / 12.0


def require_upper_half(z: complex, what: str = "z") -> complex:
    """Validate that z is finite with Im(z) > 0 and return it as a complex number."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} must be finite, got {z!r}")
    if not z.imag > 0.0:
        raise DomainError(f"Im({what}) must be positive, got {z!r}")
    return z


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


def log_eta(z: complex) -> complex:
    """Canonical branch of log(eta) on H, read at ``reduce``'s z_c (see the module docstring).

    For c = 0 it is pi i z/12 + Log P(q).  BudgetError if ``reduce`` or the value overflows.
    """
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


def eta(z: complex) -> complex:
    """Dedekind eta function on the upper half plane: exp(log_eta(z))."""
    return cmath.exp(log_eta(z))
