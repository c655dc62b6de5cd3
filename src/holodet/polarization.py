"""Reconstruction of holomorphic functions of (z, w) from diagonal samples.

A real-analytic function on the totally real diagonal {w = zbar} of a disc
determines a unique holomorphic function of two variables near the diagonal:
writing phi(z, zbar) = sum a_{ab} (z-c)^a (zbar-cbar)^b, the same moment
system that forces all a_{ab} of a vanishing diagonal restriction to vanish
also determines them constructively from samples.  ``polarize_fit`` solves
that system by SVD-truncated least squares in radius-normalized monomials;
the holomorphic extension is F(z, w) = sum a_{ab} (z-c)^a (w-cbar)^b.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, FitRankError

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def disc_samples(center: complex, radius: float, count: int) -> np.ndarray:
    """Deterministic concentric-circle sample points inside a disc.

    Rings at radii radius*sqrt((j+1)/J), angles offset per ring by the
    golden angle; well dispersed and reproducible, which keeps the
    Vandermonde-type fit system well conditioned.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    n_rings = max(3, round(math.sqrt(count / 2.0)))
    per_ring = -(-count // n_rings)  # ceil
    pts = []
    for j in range(n_rings):
        r = radius * math.sqrt((j + 1) / n_rings)
        for k in range(per_ring):
            th = 2.0 * math.pi * k / per_ring + j * _GOLDEN_ANGLE
            pts.append(center + r * complex(math.cos(th), math.sin(th)))
    return np.asarray(pts[:count], dtype=complex)


@dataclass(frozen=True, eq=False)
class DiagonalSampleSet:
    """Samples f(z, zbar) over points of a declared disc."""

    points: np.ndarray
    values: np.ndarray
    center: complex
    radius: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        vals = np.asarray(self.values, dtype=complex).ravel()
        if pts.shape != vals.shape:
            raise ValueError("points and values must have equal length")
        if np.max(np.abs(pts - self.center)) > self.radius * (1 + 1e-9):
            raise ValueError("sample points outside the declared disc")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, diag: Callable[[complex], complex], center: complex,
                      radius: float, count: int) -> "DiagonalSampleSet":
        pts = disc_samples(center, radius, count)
        vals = np.array([diag(complex(p)) for p in pts], dtype=complex)
        return cls(pts, vals, complex(center), float(radius))


@dataclass(frozen=True, eq=False)
class PolarizedPolynomial:
    """Fitted coefficients a_{ab} of sum a_{ab} (z-c)^a (zbar-cbar)^b."""

    degree: int
    coefficients: np.ndarray  # (D+1, D+1)
    center: complex
    radius: float
    conditioning: float  # singular-value ratio s_max / s_min
    residual: float      # max abs misfit at the sample points

    def evaluate(self, z: complex, w: complex) -> complex:
        """Holomorphic extension F(z, w) = sum a_{ab} (z-c)^a (w-cbar)^b."""
        u = complex(z) - self.center
        v = complex(w) - self.center.conjugate()
        d = self.degree
        up = u ** np.arange(d + 1)
        vp = v ** np.arange(d + 1)
        return complex(up @ self.coefficients @ vp)

    def diagonal(self, z: complex) -> complex:
        return self.evaluate(z, complex(z).conjugate())

    @property
    def scaled_coefficients(self) -> np.ndarray:
        """Coefficients of the radius-normalized monomials ((z-c)/r)^a ((w-cbar)/r)^b.

        |scaled| is the amplitude each mode contributes on the disc itself,
        which is the meaningful magnitude for uniqueness certificates; the
        raw a_{ab} blow up like r^-(a+b) for small discs.
        """
        d = self.degree
        scale = self.radius ** (np.arange(d + 1)[:, None] + np.arange(d + 1)[None, :])
        return self.coefficients * scale

    def max_coefficient(self) -> float:
        return float(np.max(np.abs(self.scaled_coefficients)))


def _design_matrix(points: np.ndarray, center: complex, radius: float, degree: int) -> np.ndarray:
    u = (points - center) / radius
    up = u[:, None] ** np.arange(degree + 1)[None, :]
    vp = np.conj(u)[:, None] ** np.arange(degree + 1)[None, :]
    return (up[:, :, None] * vp[:, None, :]).reshape(len(points), (degree + 1) ** 2)


def polarize_fit(samples: DiagonalSampleSet, degree: int,
                 svd_cutoff: float = 1e-10) -> PolarizedPolynomial:
    """Least-squares fit of the diagonal moment system, SVD-truncated.

    Monomials are centered and radius-normalized before fitting for
    conditioning; coefficients are rescaled on return.  Raises FitRankError
    for too few samples, clustered samples, or directions lost below the
    cutoff (the count of truncated directions is reported in the message).
    """
    degree = int(degree)
    if degree < 0:
        raise DomainError("degree must be >= 0")
    n_coef = (degree + 1) ** 2
    pts, vals = samples.points, samples.values
    if len(pts) < n_coef:
        raise FitRankError(
            f"insufficient samples: {len(pts)} points for {n_coef} coefficients (degree {degree})"
        )
    if len(pts) > 1:
        d2 = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d2, np.inf)
        if float(d2.min()) < 1e-8 * samples.radius:
            raise FitRankError("insufficient dispersion: near-duplicate sample points")

    design = _design_matrix(pts, samples.center, samples.radius, degree)
    coef, _, rank, sv = np.linalg.lstsq(design, vals, rcond=svd_cutoff)
    if rank < n_coef:
        raise FitRankError(
            f"insufficient samples/dispersion: {n_coef - rank} of {n_coef} "
            f"directions fall below the SVD cutoff {svd_cutoff:g}"
        )
    residual = float(np.max(np.abs(design @ coef - vals)))
    conditioning = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf

    scale = samples.radius ** -(np.arange(degree + 1)[:, None] + np.arange(degree + 1)[None, :])
    coeffs = coef.reshape(degree + 1, degree + 1) * scale
    return PolarizedPolynomial(degree, coeffs, samples.center, samples.radius,
                               conditioning, residual)


def uniqueness_residual(f1: Callable, f2: Callable, center: complex, radius: float,
                        degree: int, count: int | None = None,
                        svd_cutoff: float = 1e-10) -> float:
    """Max fitted |a_{ab}| of the difference of two extensions on a diagonal disc.

    Near zero certifies that f1 and f2 coincide (to fit accuracy) as
    holomorphic functions near the diagonal; an injected monomial
    perturbation comes back at its own magnitude.
    """
    count = count or 2 * (degree + 1) ** 2

    def diag(z: complex) -> complex:
        zb = z.conjugate()
        return f1(z, zb) - f2(z, zb)

    samples = DiagonalSampleSet.from_function(diag, center, radius, count)
    fit = polarize_fit(samples, degree, svd_cutoff)
    return fit.max_coefficient()


# --- CSV interface (columns: re_z, im_z, re_val, im_val) ---------------------

CSV_FIELDS = ("re_z", "im_z", "re_val", "im_val")


def load_diagonal_csv(path) -> DiagonalSampleSet:
    """Read diagonal samples; disc center/radius are inferred from the points."""
    pts, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(CSV_FIELDS):
            raise ValueError(f"expected CSV header {','.join(CSV_FIELDS)}")
        for row in reader:
            pts.append(complex(float(row["re_z"]), float(row["im_z"])))
            vals.append(complex(float(row["re_val"]), float(row["im_val"])))
    if not pts:
        raise ValueError("no samples in CSV")
    pts = np.asarray(pts)
    center = complex(np.mean(pts))
    radius = float(np.max(np.abs(pts - center))) * (1 + 1e-12) or 1.0
    return DiagonalSampleSet(pts, np.asarray(vals), center, radius)


def save_diagonal_csv(path, samples: DiagonalSampleSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for p, v in zip(samples.points, samples.values):
            writer.writerow([repr(float(p.real)), repr(float(p.imag)),
                             repr(float(v.real)), repr(float(v.imag))])
