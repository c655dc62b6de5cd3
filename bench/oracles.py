"""Reference values for the benchmark's correctness checks.

Everything here is written from the formulas with the standard library only
and imports nothing from holodet, so a defect in holodet's eta, modular
reduction or quadrature cannot cancel out of a check.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi

#: genus1_extension(z, zbar) - log det closed form, i.e. -log(2 pi) / 2.
DIAGONAL_CONSTANT = -0.5 * math.log(TWO_PI)

#: gmix_n2 of holodet's built-in catalog: g = z1^2 w1^3 + z2 w2, bases below.
GMIX_BASE_Z = (0.1 + 0.1j, 0.05j)
GMIX_BASE_W = (-0.1j, 0.2 + 0.0j)

_SERIES_HEIGHT = 0.5


def reduce_modulus(z: complex) -> complex:
    """Move z in H to |Re z| <= 1/2, |z| >= 1 with z -> z - k and z -> -1/z."""
    for _ in range(512):
        z -= math.floor(z.real + 0.5)
        if abs(z) >= 1.0 - 1e-15:
            return z
        z = -1.0 / z
    return z


def log_eta(z: complex) -> complex:
    """Canonical branch of log eta, by the exact laws and the q-series.

    log eta(z + 1) = log eta(z) + pi i / 12 and
    log eta(-1/z) = log eta(z) + Log(-i z) / 2 move z to height >= 1/2, where
    pi i z / 12 + sum Log(1 - q^n) needs at most 14 terms.
    """
    shift = 0.0j
    for _ in range(512):
        if z.imag >= _SERIES_HEIGHT:
            break
        k = math.floor(z.real + 0.5)
        z -= k
        shift += 1j * math.pi * k / 12.0
        # |Re z| <= 1/2 and Im z < 1/2 give |z|^2 < 1/2: inversion doubles Im z
        shift -= 0.5 * cmath.log(-1j * z)
        z = -1.0 / z
    q = cmath.exp(2j * math.pi * z)
    total = 1j * math.pi * z / 12.0
    qn = q
    while abs(qn) > 1e-18:
        total += cmath.log(1.0 - qn)
        qn *= q
    return total + shift


def torus_spectral_log_det(z: complex) -> float:
    """log of y^2 |eta|^4 at the reduced modulus: the spectral normalization."""
    zc = reduce_modulus(z)
    return 2.0 * math.log(zc.imag) + 4.0 * log_eta(zc).real


def torus_closed_form(z: complex) -> float:
    """log(2 pi y^(1/2) |eta|^2), evaluated at the reduced modulus (it is invariant)."""
    zc = reduce_modulus(z)
    return math.log(TWO_PI) + 0.5 * math.log(zc.imag) + 2.0 * log_eta(zc).real


def split_extension(z: complex, w: complex) -> complex:
    """genus1 eta extension minus DIAGONAL_CONSTANT: what a C = -1/2 split recipe gives."""
    value = (0.5 * cmath.log(-1j * math.pi * (z - w)) + log_eta(z)
             + log_eta(w.conjugate()).conjugate())
    return value - DIAGONAL_CONSTANT


def _pole_antiderivative(k: int, z: complex, w: complex) -> complex:
    """G with d_z d_w G = (z - w)^-k; principal Log is continuous for Im z > 0 > Im w."""
    if k == 2:
        return cmath.log(z - w)
    return -((z - w) ** (2 - k)) / ((k - 1) * (k - 2))


def pole_potential(coefficient: complex, k: int, z, w, z0, w0) -> complex:
    """Cone potential of c (z - w)^-k dz ^ dw with bases (z0, w0)."""
    g = _pole_antiderivative
    return coefficient * (g(k, z, w) - g(k, z0, w) - g(k, z, w0) + g(k, z0, w0))


def _gmix_g(z, w) -> complex:
    return z[0] ** 2 * w[0] ** 3 + z[1] * w[1]


def gmix_potential(z, w) -> complex:
    """Inclusion-exclusion g(z,w) - g(z0,w) - g(z,w0) + g(z0,w0) for gmix_n2."""
    z0, w0 = GMIX_BASE_Z, GMIX_BASE_W
    return _gmix_g(z, w) - _gmix_g(z0, w) - _gmix_g(z, w0) + _gmix_g(z0, w0)
