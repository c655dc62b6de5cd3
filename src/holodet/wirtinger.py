"""Finite-difference Wirtinger derivatives with Richardson extrapolation.

This is the library's only home for difference stencils.  All helpers take
a callable of complex arguments (values may be complex scalars or numpy
arrays) and use 2nd-order central differences, lifted to O(h^4) by one
Richardson step.  ``wirtinger_pair``
returns d/dz and d/dzbar together from one set of samples.
"""

from __future__ import annotations


def _richardson(one, h: float) -> tuple:
    """Entrywise (4 one(h/2) - one(h)) / 3 for a tuple-valued stencil ``one``."""
    fine, coarse = one(0.5 * h), one(h)
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(fine, coarse))


def wirtinger_pair(f, p: complex, h: float) -> tuple:
    """(d/dz f, d/dzbar f) at p, with d/dz = (d/dx - i d/dy)/2 and d/dzbar its conjugate.

    For holomorphic f the first is f'(p) and the second vanishes.
    """

    def one(step):
        fx = (f(p + step) - f(p - step)) / (2.0 * step)
        fy = (f(p + 1j * step) - f(p - 1j * step)) / (2.0 * step)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    return _richardson(one, h)


def wirtinger_dzbar(f, p: complex, h: float):
    """d/dzbar = (d/dx + i d/dy)/2 at p; vanishes for holomorphic f."""
    return wirtinger_pair(f, p, h)[1]


def dz_dzbar(u, p: complex, h: float):
    """d^2 u / dz dzbar = Laplacian/4 of a real-valued function at p."""
    u0 = u(p)

    def one(step):
        lap = (u(p + step) + u(p - step) + u(p + 1j * step) + u(p - 1j * step)
               - 4.0 * u0) / (step * step)
        return (0.25 * lap,)

    return _richardson(one, h)[0]


def mixed_second(q, z: complex, w: complex, h: float):
    """d^2 q / dz dw by a central 4-point stencil on holomorphic directions."""

    def one(step):
        return ((q(z + step, w + step) - q(z + step, w - step)
                 - q(z - step, w + step) + q(z - step, w - step)) / (4.0 * step * step),)

    return _richardson(one, h)[0]
