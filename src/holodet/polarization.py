"""Reconstruction of holomorphic functions of (z, w) from diagonal samples.

A real-analytic function on the totally real diagonal {w = zbar} of a disc
determines a unique holomorphic function of two variables near the diagonal:
writing phi(z, zbar) = sum a_{ab} (z-c)^a (zbar-cbar)^b, the same moment
system that forces all a_{ab} of a vanishing diagonal restriction to vanish
also determines them constructively from samples.  The holomorphic extension
is F(z, w) = sum a_{ab} (z-c)^a (w-cbar)^b.

``polarize_fit`` finds the a_{ab} in the Zernike basis of the disc: with
u = (z-c)/r = rho e^{i theta}, the span of u^a ubar^b (a, b <= D) is the span
of Z_{ab} = sqrt(n+1) R_n^|m|(rho) e^{i m theta}, m = a - b,
n = |m| + 2 min(a, b), which are orthonormal in L^2 of the disc (Zernike,
Physica 1, 1934).  Samples from ``DiagonalSampleSet.from_function`` lie on a
ring grid: Gauss-Legendre radii in rho^2 and equally spaced angles.  On that
grid the weighted design is orthonormal, so the fit is the L^2 projection:
one DFT per ring and one small radial projection per angular mode, with no
solve.  Scattered samples (a CSV) are fitted by least squares on the same
columns.  Either way the exact triangular Zernike-to-monomial map gives the
a_{ab}.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .catalog import finite_floats
from .errors import DomainError, FitRankError
from .torus_spectral import _gauss_legendre

#: Entries of the pairwise-distance block the dispersion check holds at once.
_PAIR_BLOCK = 1 << 18

#: Relative singular-value cutoff of the least-squares fit of scattered samples.
SVD_CUTOFF = 1e-10


def _check_disc(center, radius) -> None:
    """A DomainError unless the disc has a finite center and a finite radius > 0."""
    if not cmath.isfinite(center):
        raise DomainError(f"disc center must be finite, got {center!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"disc radius must be finite and positive, got {radius!r}")


def _at_least(value, low: int, what: str) -> int:
    """``value`` as an int; a DomainError naming ``what`` unless it is an integer >= low."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _ring_layout(count: int) -> tuple[int, int]:
    """Rings and angles per ring of ``disc_samples(..., count)``."""
    count = _at_least(count, 1, "count")
    rings = max(3, round(math.sqrt(count / 2.0)))
    return rings, -(-count // rings)  # ceil


def disc_samples(center: complex, radius: float, count: int) -> np.ndarray:
    """Deterministic ring-grid sample points inside a disc, ring by ring.

    R = max(3, round(sqrt(count/2))) rings at the Gauss-Legendre nodes in
    rho^2, rho_j^2 = (x_j + 1)/2, each with M = ceil(count/R) equally spaced
    angles 2 pi k/M.  Every ring is complete, so there are R*M >= count
    points; for count = 2(D+1)^2 that is D+1 rings of 2D+2 points.
    """
    _check_disc(center, radius)
    rings, per_ring = _ring_layout(count)
    xs, _ = _gauss_legendre(rings)
    rho = np.sqrt(0.5 * (xs + 1.0))
    turn = np.exp(2j * np.pi * np.arange(per_ring) / per_ring)
    return complex(center) + radius * (rho[:, None] * turn[None, :]).ravel()


@dataclass(frozen=True, eq=False)
class DiagonalSampleSet:
    """Samples f(z, zbar) over points of a declared disc.

    ``layout`` = (R, M) records that the points are ``disc_samples``' ring
    grid of R rings of M points.  It is no constructor argument: only
    ``from_function``, which built that grid, sets it, and every other set
    carries none.
    """

    points: np.ndarray
    values: np.ndarray
    center: complex
    radius: float
    layout: tuple[int, int] | None = field(default=None, init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        vals = np.asarray(self.values, dtype=complex).ravel()
        if pts.shape != vals.shape:
            raise DomainError("points and values must have equal length")
        if not pts.size:
            raise DomainError("a diagonal sample set needs at least one point")
        _check_disc(self.center, self.radius)
        if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
            raise DomainError("sample points and values must be finite")
        if np.max(np.abs(pts - self.center)) > self.radius * (1 + 1e-9):
            raise DomainError("sample points outside the declared disc")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, diag: Callable[[np.ndarray], np.ndarray], center: complex,
                      radius: float, count: int) -> "DiagonalSampleSet":
        """Sample ``diag``, called once with the whole ring grid, on the disc.

        ``diag`` maps an array of points to the array of its values; a
        scalar value is a constant, the same at every point.  The count and
        the disc are checked before ``diag`` is called.
        """
        center, radius = complex(center), float(radius)
        pts = disc_samples(center, radius, count)
        vals = np.asarray(diag(pts), dtype=complex)
        if vals.ndim == 0:
            vals = np.full(pts.shape, vals)
        samples = cls(pts, vals, center, radius)
        object.__setattr__(samples, "layout", _ring_layout(count))
        return samples


@dataclass(frozen=True, eq=False)
class PolarizedPolynomial:
    """Fitted coefficients a_{ab} of sum a_{ab} (z-c)^a (zbar-cbar)^b."""

    degree: int
    coefficients: np.ndarray  # (D+1, D+1)
    center: complex
    radius: float
    conditioning: float  # s_max / s_min of the (weighted) Zernike design; 1 on a ring grid
    residual: float      # max abs misfit at the sample points

    def evaluate(self, z, w):
        """Holomorphic extension F(z, w) = sum a_{ab} (z-c)^a (w-cbar)^b.

        A complex at a point (z, w); at arrays z and w of one shape, the
        array of values, from one stacked product of the two power tables,
        row by row in the order (u^a C) v^b, as at a point.
        """
        u = np.asarray(z, dtype=complex) - self.center
        v = np.asarray(w, dtype=complex) - self.center.conjugate()
        powers = np.arange(self.degree + 1)
        up = u[..., None, None] ** powers  # (..., 1, D+1)
        vp = v[..., None, None] ** powers
        value = (up @ self.coefficients @ np.swapaxes(vp, -1, -2))[..., 0, 0]
        return complex(value) if value.ndim == 0 else value

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


# --- the Zernike basis ---------------------------------------------------------
# Z_{ab} is indexed like the monomial u^a ubar^b it replaces: angular order
# m = a - b and radial order k = min(a, b), so Z_{ab} = u^a ubar^b + lower terms.


def _jacobi(x: np.ndarray, degree: int) -> np.ndarray:
    """J[m, k] = sqrt(n+1) P_k^(0,m)(x), n = m + 2k, for m + k <= degree (else 0).

    With x = 2 rho^2 - 1, rho^m J[m, k] is the orthonormal radial Zernike
    function of Z_{ab}, |m| = |a - b|.  Three-term Jacobi recurrence in k.
    """
    x = np.asarray(x, dtype=float)
    J = np.zeros((degree + 1, degree + 1) + x.shape)
    for m in range(degree + 1):
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in range(degree + 1 - m):
            if k == 1:
                prev, cur = cur, 1.0 + 0.5 * (m + 2) * (x - 1.0)
            elif k > 1:
                s = 2 * k + m
                nxt = ((s - 1) * (s * (s - 2) * x - m * m) * cur
                       - 2 * (k - 1) * (k + m - 1) * s * prev) / (2 * k * (k + m) * (s - 2))
                prev, cur = cur, nxt
            J[m, k] = math.sqrt(m + 2 * k + 1) * cur
    return J


@lru_cache(maxsize=16)
def _to_monomials(degree: int) -> np.ndarray:
    """The exact triangular map from Zernike to monomial coefficients, (D+1)^2 square.

    Column ab holds the coefficients of Z_{ab} in the u^a' ubar^b': the
    integer coefficient of t^l in P_k^(0,m)(2t - 1) is
    (-1)^(k-l) (m+k+l)! / ((k-l)! (m+l)! l!), times sqrt(n+1).
    """
    d = degree + 1
    T = np.zeros((d, d, d, d))
    for a in range(d):
        for b in range(d):
            m, k = abs(a - b), min(a, b)
            for l in range(k + 1):
                c = math.factorial(m + k + l) // (math.factorial(k - l)
                                                  * math.factorial(m + l) * math.factorial(l))
                T[a - k + l, b - k + l, a, b] = (-1) ** (k - l) * c * math.sqrt(m + 2 * k + 1)
    T = T.reshape(d * d, d * d)
    T.flags.writeable = False
    return T


def _zernike_columns(u: np.ndarray, degree: int) -> np.ndarray:
    """Design matrix of the Z_{ab} at scaled points u, columns in row-major (a, b)."""
    d = degree + 1
    J = _jacobi(2.0 * np.abs(u) ** 2 - 1.0, degree)
    up = u[None, :] ** np.arange(d)[:, None]
    cols = np.empty((d, d, len(u)), dtype=complex)
    for a in range(d):
        for b in range(d):
            cols[a, b] = J[abs(a - b), min(a, b)] * (up[a - b] if a >= b else np.conj(up[b - a]))
    return cols.reshape(d * d, len(u)).T


@lru_cache(maxsize=16)
def _ring_rule(degree: int, rings: int, per_ring: int):
    """Read-only matrices of the ring fit at degree D on R rings of M angles.

    ``dft`` (M, 2D+1) takes a ring's samples to its angular modes
    m = -D..D; ``project`` (2D+1, D+1, R) takes mode m's ring values to its
    Zernike coefficients k = 0..D-|m| (the Gauss-Legendre weights in rho^2
    times the radials; rows beyond D-|m| are zero); ``synth`` (2D+1, R, D+1)
    is its transpose without the weights; ``gather`` picks Z_{ab} (m = a-b,
    k = min(a,b)) out of the (2D+1, D+1) mode table.
    """
    xs, ws = _gauss_legendre(rings)
    rho = np.sqrt(0.5 * (xs + 1.0))
    radial = _jacobi(xs, degree) * rho ** np.arange(degree + 1)[:, None, None]
    modes = np.arange(-degree, degree + 1)
    radial = radial[np.abs(modes)]  # (2D+1, D+1, R)
    angles = np.arange(per_ring) / per_ring
    dft = np.exp(-2j * np.pi * angles[:, None] * modes[None, :]) / per_ring
    project = (radial * (0.5 * ws)).astype(complex)
    synth = radial.transpose(0, 2, 1).astype(complex)
    a, b = np.indices((degree + 1, degree + 1))
    gather = ((a - b + degree) * (degree + 1) + np.minimum(a, b)).ravel()
    for arr in (dft, project, synth, gather):
        arr.flags.writeable = False
    return dft, project, synth, gather


def _ring_fit(vals: np.ndarray, degree: int):
    """Zernike coefficients by the L^2 projection of ring-grid values (R, M), and the misfit."""
    rings, per_ring = vals.shape
    dft, project, synth, gather = _ring_rule(degree, rings, per_ring)
    modes = (vals @ dft).T[:, :, None]                 # (2D+1, R, 1)
    zern = np.matmul(project, modes)                    # (2D+1, D+1, 1)
    fitted = (np.matmul(synth, zern)[:, :, 0].T @ np.conj(dft.T)) * per_ring
    return zern.ravel()[gather], float(np.max(np.abs(fitted - vals)))


def _min_separation(pts: np.ndarray) -> float:
    """Smallest distance between two of the points, in row blocks of bounded size."""
    n = len(pts)
    rows = max(1, _PAIR_BLOCK // n)
    best = math.inf
    for start in range(0, n, rows):
        block = np.abs(pts[start:start + rows, None] - pts[None, :])
        own = np.arange(start, min(start + rows, n))
        block[own - start, own] = np.inf
        best = min(best, float(block.min()))
    return best


def _scattered_fit(samples: DiagonalSampleSet, vals: np.ndarray, degree: int):
    """Zernike coefficients of vals at the sample points by SVD-truncated least squares.

    Returns them with the misfit and the design's conditioning.
    """
    n_coef = (degree + 1) ** 2
    pts = samples.points
    if len(pts) > 1 and _min_separation(pts) < 1e-8 * samples.radius:
        raise FitRankError("insufficient dispersion: near-duplicate sample points")
    design = _zernike_columns((pts - samples.center) / samples.radius, degree)
    zern, _, rank, sv = np.linalg.lstsq(design, vals, rcond=SVD_CUTOFF)
    if rank < n_coef:
        raise FitRankError(
            f"insufficient samples/dispersion: {n_coef - rank} of {n_coef} "
            f"directions fall below the SVD cutoff {SVD_CUTOFF:g}"
        )
    residual = float(np.max(np.abs(design @ zern - vals)))
    return zern, residual, float(sv[0] / sv[-1])  # sv[-1] > 0 at full rank


def polarize_fit(samples: DiagonalSampleSet, degree: int) -> PolarizedPolynomial:
    """Fit the diagonal moment system in the Zernike basis of the sample disc.

    A ring-grid set (``layout`` with R >= D+1 rings of M >= 2D+1 angles) is
    fitted by its L^2 projection, exact quadrature for every product of two
    basis functions, so the weighted design is orthonormal and
    ``conditioning`` is 1.  Any other set is fitted by least squares,
    SVD-truncated at ``SVD_CUTOFF``; it raises FitRankError for too few
    samples, clustered samples, or directions lost below the cutoff (the
    count of truncated directions is reported in the message).
    """
    degree = _at_least(degree, 0, "degree")
    n_coef = (degree + 1) ** 2
    if len(samples.points) < n_coef:
        raise FitRankError(
            f"insufficient samples: {len(samples.points)} points for {n_coef} "
            f"coefficients (degree {degree})"
        )
    # the mean is fitted exactly by Z_00 = 1; taking it out first keeps the
    # rounding of a large constant out of the higher modes
    mean = complex(np.mean(samples.values))
    vals = samples.values - mean
    layout = samples.layout
    if layout is not None and layout[0] >= degree + 1 and layout[1] >= 2 * degree + 1:
        zern, residual = _ring_fit(vals.reshape(layout), degree)
        conditioning = 1.0
    else:
        zern, residual, conditioning = _scattered_fit(samples, vals, degree)
    zern[0] += mean

    scale = samples.radius ** -(np.arange(degree + 1)[:, None] + np.arange(degree + 1)[None, :])
    # a real product with [Re, Im]: a complex gemv takes milliseconds under threaded OpenBLAS
    coeffs = _to_monomials(degree) @ np.stack([zern.real, zern.imag], axis=1)
    coeffs = (coeffs[:, 0] + 1j * coeffs[:, 1]).reshape(degree + 1, degree + 1) * scale
    return PolarizedPolynomial(degree, coeffs, samples.center, samples.radius,
                               conditioning, residual)


def uniqueness_residual(f1: Callable, f2: Callable, center: complex, radius: float,
                        degree: int) -> float:
    """Max fitted |a_{ab}| of the difference of two extensions on a diagonal disc.

    Near zero certifies that f1 and f2 coincide (to fit accuracy) as
    holomorphic functions near the diagonal; an injected monomial
    perturbation comes back at its own magnitude.  The difference is sampled
    on the ring grid of 2(D+1)^2 points: f1 and f2 are each called once,
    with the array of its points z and the array of their conjugates.
    """
    degree = _at_least(degree, 0, "degree")

    def diag(z: np.ndarray) -> np.ndarray:
        zb = z.conj()
        return f1(z, zb) - f2(z, zb)

    samples = DiagonalSampleSet.from_function(diag, center, radius, 2 * (degree + 1) ** 2)
    fit = polarize_fit(samples, degree)
    return fit.max_coefficient()


# --- CSV interface (columns: re_z, im_z, re_val, im_val) ---------------------

CSV_FIELDS = ("re_z", "im_z", "re_val", "im_val")


def load_diagonal_csv(path) -> DiagonalSampleSet:
    """Read diagonal samples; disc center/radius are inferred from the points.

    A malformed header or row is a DomainError that names it.
    """
    pts, vals = [], []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            if [f.strip() for f in next(reader, [])] != list(CSV_FIELDS):
                raise DomainError(f"malformed samples CSV: expected header {','.join(CSV_FIELDS)}")
            for row in filter(None, reader):
                at = f"malformed samples CSV row {reader.line_num}: "
                re_z, im_z, re_val, im_val = finite_floats(row, at)
                pts.append(complex(re_z, im_z))
                vals.append(complex(re_val, im_val))
        except (ValueError, csv.Error) as exc:
            raise DomainError(f"malformed samples CSV row {reader.line_num}: {exc}") from None
    if not pts:
        raise DomainError("malformed samples CSV: no samples")
    pts = np.asarray(pts)
    center = complex(np.mean(pts))
    radius = float(np.max(np.abs(pts - center))) * (1 + 1e-12) or 1.0
    return DiagonalSampleSet(pts, np.asarray(vals), center, radius)
