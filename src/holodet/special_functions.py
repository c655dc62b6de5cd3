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

#: Hard cap on q-series terms, in ``eta_term_count`` and on an explicit
#: ``terms``.  log_eta reduces its argument first, so it never needs more
#: than 12 terms.
MAX_ETA_TERMS = 200_000

#: Below this height log_eta reduces first; above it |q| <= e^(-pi).
_REDUCE_HEIGHT = 0.5

#: Cap on reduction passes in log_eta; unreachable (see the loop there).
_MAX_REDUCTIONS = 600

#: The geometric tail bound for the q-series is used only for |q| <= this
#: (where |log(1-u)| <= 2|u| still holds); after reduction |q| <= 0.0433.
_TAIL_BOUND_MAX_Q = 0.79

_DEFAULT_REL_TOL = 1e-15

#: log_eta sums ceil(_ETA_TERMS_HEIGHT / Im z) terms after its reduction, at
#: least eta_term_count's count for every Im z >= 1/2 (|q| <= e^-pi).
_ETA_TERMS_HEIGHT = math.log(2.0 / (_DEFAULT_REL_TOL * (1.0 - math.exp(-math.pi)))) / TWO_PI


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


def eta_term_count(z: complex, rel_tol: float = _DEFAULT_REL_TOL) -> int:
    """Number of series terms so the dropped tail is below rel_tol (relative).

    Uses sum_{n>N} |log(1 - q^n)| <= 2|q|^{N+1} / (1 - |q|).  Raises
    BudgetError when the bound cannot be met within MAX_ETA_TERMS or when
    |q| is too close to 1 for the bound to apply.
    """
    z = require_upper_half(z)
    absq = math.exp(-TWO_PI * z.imag)
    if absq > _TAIL_BOUND_MAX_Q:
        raise BudgetError(
            f"convergence budget exceeded: |q| = {absq:.6f} too close to 1 at Im(z) = {z.imag!r}"
        )
    n = math.ceil(math.log(2.0 / (rel_tol * (1.0 - absq))) / (TWO_PI * z.imag))
    n = max(n, 1)
    if n > MAX_ETA_TERMS:
        raise BudgetError(
            f"convergence budget exceeded: {n} terms needed at Im(z) = {z.imag!r}, cap {MAX_ETA_TERMS}"
        )
    return n


def eta_tail_bound(z: complex, terms: int) -> float:
    """Bound on the relative error of eta(z, terms), the series truncated after ``terms``.

    Returns inf where the geometric bound does not apply (|q| > 0.79).
    """
    z = require_upper_half(z)
    absq = math.exp(-TWO_PI * z.imag)
    if absq > _TAIL_BOUND_MAX_Q:
        return math.inf
    log_tail = 2.0 * absq ** (terms + 1) / (1.0 - absq)
    return math.expm1(log_tail)


def log_eta(z: complex, terms: int | None = None) -> complex:
    """Canonical branch of log(eta) on H.

    Sums pi*i*z/12 + sum_n Log(1 - q^n) with the principal Log per term;
    each 1 - q^n has positive real part since |q^n| < 1.  This branch is
    analytic on all of H and satisfies exp(log_eta(z)) = eta(z).

    With ``terms=None`` the argument is first moved to Im(z) >= 1/2 by the
    exact laws log_eta(z + 1) = log_eta(z) + pi*i/12 and
    log_eta(-1/z) = log_eta(z) + Log(-i z)/2, and the series is truncated
    so the dropped tail is below 1e-15 (``eta_term_count`` at |q| = e^-pi).  An explicit
    ``terms`` sums exactly that many terms at z as given; more than
    MAX_ETA_TERMS raise BudgetError before anything is allocated.
    """
    z = require_upper_half(z)
    shift = 0j
    if terms is None:
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
        terms = math.ceil(_ETA_TERMS_HEIGHT / z.imag)
    terms = int(terms)
    if terms < 1:
        raise DomainError(f"terms must be a positive integer, got {terms}")
    if terms > MAX_ETA_TERMS:
        raise BudgetError(f"{terms} eta terms requested, cap {MAX_ETA_TERMS}")
    q = cmath.exp(2j * math.pi * z)
    total, qn = 0j, 1.0 + 0j
    for _ in range(terms):
        qn *= q
        total += cmath.log(1.0 - qn)
    return 1j * math.pi * z / 12.0 + total + shift


def eta(z: complex, terms: int | None = None) -> complex:
    """Dedekind eta function on the upper half plane: exp(log_eta(z, terms))."""
    return cmath.exp(log_eta(z, terms))

