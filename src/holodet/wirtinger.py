r"""Wirtinger derivatives by the trapezoidal rule on circles: the library's one derivative rule.

On the circle p + r e^{it}, f has the modes c_k = sum_{m-l=k} d^m dbar^l f(p) r^(m+l) / (m! l!),
so c_1 / r is d f(p), c_{-1} / r is dbar f(p), and on one circle per variable the mode (1, 1)
over r^2 is d_z d_w f.  Where f is holomorphic in the moved variables the only error is
aliasing (N samples see mode k + N as mode k: the mode -1 of a holomorphic f is its mode
N - 1), which falls geometrically with N (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967;
Trefethen & Weideman, SIAM Rev. 56, 2014).  N and r are module constants: no caller picks a step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Samples per circle.
NODES = 12

#: Radius of every circle.
RADIUS = 0.02

_ROOTS = RADIUS * np.exp(2j * np.pi * np.arange(NODES) / NODES)


class Contour(NamedTuple):
    """The modes of f on d circles, each over r^d.

    ``modes[1]`` is d f, ``modes[-1]`` dbar f and ``modes[1, 1]`` d_z d_w f.
    """

    modes: np.ndarray  # circle axes first, then the centers' shape and f's own axes
    rounding: float    # eps max|f| / r^d: the samples' rounding carried to a mode
    alias: float       # the top modes' decay carried to mode N - 1, the first to fold onto mode -1

    @property
    def tolerance(self) -> float:
        """The bound a residual read off the rule must meet: 1e-11 plus the rounding."""
        return 1e-11 + self.rounding


def contour(f, *centers) -> Contour:
    """The modes of f on a circle of radius RADIUS with NODES points about each of d centers.

    The centers share a shape S.  ``f`` is called once, with d arrays of shape (NODES,) * d + S
    (argument a moves its center along axis a), and returns shape (NODES,) * d + S + (any).
    ``alias`` carries the largest modes N/2 - 1 and N/2 of each circle axis to N - 1.
    """
    d = len(centers)
    grid = np.meshgrid(*[_ROOTS] * d, indexing="ij")
    samples = np.asarray(f(*(np.asarray(p, dtype=complex) + g.reshape(g.shape + (1,) * np.ndim(p))
                             for p, g in zip(centers, grid))))
    modes = np.fft.fftn(samples, axes=tuple(range(d))) / (NODES * RADIUS) ** d
    rounding = float(np.finfo(float).eps * np.abs(samples).max() / RADIUS ** d)
    alias, half = 0.0, NODES // 2
    for a in range(d):
        mid, top = (float(np.abs(np.take(modes, m, axis=a)).max()) for m in (half - 1, half))
        alias = max(alias, top * (min(top / mid, 1.0) if mid > 0 else 1.0) ** (half - 1))
    return Contour(modes, rounding, alias)
