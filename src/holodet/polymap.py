"""Sparse polynomials in split blocks of complex variables (z, w).

Used to manufacture closed mixed forms with a symbolic mixed-derivative
oracle: for a polynomial g(z, w) the matrix of coefficients
Omega_ij = d^2 g / dz^i dw^j is closed by symmetry of mixed partials, and
the cone potential it generates has the closed form
g(z, w) - g(z0, w) - g(z, w0) + g(z0, w0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def int_power(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e for an integer e: |e| - 1 products, then one reciprocal when e < 0.

    numpy's ``**`` takes a complex array through the C library's pow, about
    four times slower at e = -2.  Against mpmath on 3,000 points of the box
    |Re|, |Im| <= 3 the products are no less accurate: worst relative error
    2.1 eps for |e| <= 6, against 3.6 eps for ``**``.
    """
    out = x if e else np.ones_like(x)
    for _ in range(abs(e) - 1):
        out = out * x
    return np.reciprocal(out) if e < 0 else out


@dataclass(frozen=True)
class PolyMap:
    """Polynomial sum of c * z^alpha * w^beta with multi-indices per block.

    The coefficients are scalars or arrays of one ``shape`` shared by every
    term, so one map holds a whole matrix of polynomials: called on point
    blocks of shapes (..., n) that broadcast, it returns the broadcast shape
    followed by ``shape``.  Stacked points of shape (M, n) per block give
    (M, *shape).  Each monomial's factors are computed on each block's own
    points and multiply out to the broadcast shape once.
    """

    dim: int
    terms: dict[Monomial, complex | np.ndarray]

    @classmethod
    def matrix(cls, dim: int, entries) -> "PolyMap":
        """The dim x dim map whose entry (i, j) sums c * z^alpha * w^beta over its (i, j, c, alpha, beta)."""
        zero = (0,) * dim
        terms = {(zero, zero): np.zeros((dim, dim), dtype=complex)}
        for i, j, c, alpha, beta in entries:
            key = (tuple(alpha), tuple(beta))
            terms.setdefault(key, np.zeros((dim, dim), dtype=complex))[i, j] += c
        return cls(dim, terms)

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of every coefficient; () for a map with no terms."""
        return np.shape(next(iter(self.terms.values()), 0j))

    def __call__(self, z, w) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        w = np.atleast_2d(np.asarray(w, dtype=complex))
        out = np.zeros(np.broadcast_shapes(z.shape[:-1], w.shape[:-1]) + self.shape, dtype=complex)
        for monomial, c in self.terms.items():
            term = 1.0
            for points, exponents in zip((z, w), monomial):
                for k, e in enumerate(exponents):
                    if e:
                        term = term * int_power(points[..., k], e)
            out += np.multiply.outer(term, c)
        return out

    def derivative(self, block: int, i: int) -> "PolyMap":
        """d/dz^i of the map (block 0) or d/dw^i (block 1)."""
        out: dict[Monomial, complex | np.ndarray] = {}
        for monomial, c in self.terms.items():
            e = monomial[block][i]
            if e == 0:
                continue
            lowered = list(monomial)
            lowered[block] = tuple(a - (k == i) for k, a in enumerate(monomial[block]))
            key = tuple(lowered)
            out[key] = out.get(key, 0) + c * e
        return PolyMap(self.dim, out)

    def mixed_coefficient_evaluator(self) -> "PolyMap":
        """The n x n matrix d^2 g / dz^i dw^j as one map, (..., n) per block -> (..., n, n)."""
        n = self.dim
        return PolyMap.matrix(n, [(i, j, c, *monomial) for i in range(n) for j in range(n)
                                  for monomial, c in self.derivative(0, i).derivative(1, j).terms.items()])


def monomials_up_to(dim: int, degree: int) -> list[Monomial]:
    """All (alpha, beta) with total degree over both blocks <= degree, in sorted order."""
    return [(e[:dim], e[dim:]) for e in itertools.product(range(degree + 1), repeat=2 * dim)
            if sum(e) <= degree]


def random_polymap(dim: int, degree: int, n_terms: int, rng: np.random.Generator) -> PolyMap:
    """Deterministic random polynomial: coefficients in the unit box."""
    pool = monomials_up_to(dim, degree)
    picks = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    terms = {}
    for p in sorted(picks):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[pool[int(p)]] = c
    return PolyMap(dim, terms)
