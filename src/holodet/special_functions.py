"""The Dedekind eta function on H and the modular reduction of its argument.

Conventions used throughout the library:

* principal branch: Arg in (-pi, pi];
* upper half plane H: Im(z) > 0;
* nome q = exp(2*pi*i*z), so |q| = exp(-2*pi*Im(z)) < 1 on H;
* eta(z) = q^(1/24) * prod_{n>=1} (1 - q^n), with q^(1/24) read as
  exp(pi*i*z/12).

There is one eta path.  ``log_eta`` sums the canonical series

    pi*i*z/12 + sum_{n>=1} Log(1 - q^n),

which is the analytic branch of log(eta) on all of H: every factor 1 - q^n
has positive real part because |q^n| < 1, so each principal Log is safe.
Below Im(z) = 1/2 it first moves the argument with the exact laws of that
branch, log eta(z + 1) = log eta(z) + pi*i/12 and
log eta(-1/z) = log eta(z) + Log(-i z)/2; from there |q| <= e^(-pi) and
12 terms reach a relative tail of 1e-15.  ``eta`` is exp(log_eta), and
``closed_form_log_det`` in ``torus_spectral`` uses 2 Re log_eta, so neither
underflows near a cusp.
"""

from __future__ import annotations

import cmath
import math

from .errors import BudgetError, DomainError

TWO_PI = 2.0 * math.pi

#: Below this height log_eta reduces first; above it |q| <= e^(-pi).
_REDUCE_HEIGHT = 0.5

#: Cap on reduction passes in log_eta; unreachable (see the loop there).
_MAX_REDUCTIONS = 600

#: log_eta sums N = ceil(_ETA_TERMS_HEIGHT / Im z) terms after its reduction.
#: The dropped tail obeys sum_{n>N} |Log(1 - q^n)| <= 2|q|^(N+1) / (1 - |q|),
#: and this N makes that at most 1e-15 for every |q| <= e^(-pi).
_ETA_TERMS_HEIGHT = math.log(2.0 / (1e-15 * (1.0 - math.exp(-math.pi)))) / TWO_PI


def require_upper_half(z: complex, what: str = "z") -> complex:
    """Validate that z is finite with Im(z) > 0 and return it as a complex number."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} must be finite, got {z!r}")
    if not z.imag > 0.0:
        raise DomainError(f"Im({what}) must be positive, got {z!r}")
    return z


def canonical_modulus(z: complex) -> complex:
    """Reduce z in H to the standard fundamental domain |Re| <= 1/2, |z| >= 1.

    Uses only the exact lattice moves z -> z - k and z -> -1/z, so the
    associated torus is unchanged up to isometry class of its similarity
    orbit.  The loop terminates because each inversion strictly increases
    Im(z) while |z| < 1.
    """
    z = require_upper_half(z)
    for _ in range(256):
        k = math.floor(z.real + 0.5)
        if k:
            z = z - k
        if abs(z) < 1.0 - 1e-15:
            z = -1.0 / z
        else:
            return z
    return z  # within float noise of the |z| = 1 boundary


def log_eta(z: complex) -> complex:
    """Canonical branch of log(eta) on H.

    Sums pi*i*z/12 + sum_n Log(1 - q^n) with the principal Log per term;
    each 1 - q^n has positive real part since |q^n| < 1.  This branch is
    analytic on all of H and satisfies exp(log_eta(z)) = eta(z).

    The argument is first moved to Im(z) >= 1/2 by the exact laws
    log_eta(z + 1) = log_eta(z) + pi*i/12 and
    log_eta(-1/z) = log_eta(z) + Log(-i z)/2, and the series is truncated
    so the dropped tail is below 1e-15 (see ``_ETA_TERMS_HEIGHT``).
    """
    z = require_upper_half(z)
    shift = 0j
    # each pass divides Im(z) by |z|^2 <= 1/4 + Im(z)^2: by more than 3.9
    # below 0.05, which a subnormal height reaches within 545 passes,
    # and by at least 2 from there to 1/2, which takes 4 more
    for _ in range(_MAX_REDUCTIONS):
        if z.imag >= _REDUCE_HEIGHT:
            break
        k = math.floor(z.real + 0.5)
        z -= k
        shift += 1j * math.pi * k / 12.0 - 0.5 * cmath.log(-1j * z)
        z = -1.0 / z
    else:
        raise BudgetError("modular reduction did not converge")
    q = cmath.exp(2j * math.pi * z)
    total, qn = 0j, 1.0 + 0j
    for _ in range(math.ceil(_ETA_TERMS_HEIGHT / z.imag)):
        qn *= q
        total += cmath.log(1.0 - qn)
    return 1j * math.pi * z / 12.0 + total + shift


def eta(z: complex) -> complex:
    """Dedekind eta function on the upper half plane: exp(log_eta(z))."""
    return cmath.exp(log_eta(z))
