r"""Serializable catalog of closed (2,0)-forms with only mixed components.

The catalog file format is plain text, whitespace-separated key/value lines
inside ``form <name>`` ... ``end`` blocks; complex numbers are written as a
``re im`` pair, vectors as repeated pairs.  There is no expression
interpreter: polynomial data are explicit coefficient lists, so entries stay
auditable and parseable from any language.

Kinds
-----
constant         c * dz /\ dw in one variable
pole_power       c * (z - w)^{-k} dz /\ dw in one variable, k >= 2; its
                 coefficient refuses points within POLE_GUARD = 1e-3 of z = w
polynomial       explicit monomials of each Omega_ij; its closedness and
                 holomorphy residuals must stay within the contour rule's
                 tolerance, 1e-11 plus the samples' rounding, before use
mixed_second_of  Omega_ij = d^2 g / dz^i dw^j for an explicit polynomial g,
                 closed by construction

The constant and the two polynomial kinds build Omega as one matrix
``PolyMap``; repeated monomials sum, in ``coeff`` and ``gterm`` lines alike.
Every other directive is given at most once per block (SINGLE_VALUED).
``dim`` is at least 1, every number is finite, a ``coeff`` line's indices
i, j lie in [0, dim), every ``coeff`` or ``gterm`` line gives dim exponents
per block, and every base and ball center is a point of C^dim.  A line that
breaks a rule is a DomainError naming it.

Example::

    form wp_genus1
      kind pole_power
      dim 1
      coefficient 1 0
      exponent 2
      base_z 0 1
      base_w 0 -1
      domain_z 0 5 4.9
      domain_w 0 -5 4.9
    end
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DomainError, HolodetError, QuadratureError
from .polymap import PolyMap, int_power
from .potential_builder import (
    ClosedHoloForm,
    ProductDomain,
    check_closed_and_holomorphic,
)

# term of a polynomial entry: (i, j, coefficient, alpha, beta)
PolyTerm = tuple[int, int, complex, tuple[int, ...], tuple[int, ...]]
# term of a mixed_second_of entry: (coefficient, alpha, beta)
GTerm = tuple[complex, tuple[int, ...], tuple[int, ...]]

KINDS = ("constant", "pole_power", "polynomial", "mixed_second_of")

#: A pole_power coefficient refuses points with |z - w| below this.
POLE_GUARD = 1e-3


@dataclass(frozen=True)
class FormCatalogEntry:
    name: str
    kind: str
    dim: int
    base_z: tuple
    base_w: tuple
    domain_z_center: tuple
    domain_z_radius: float
    domain_w_center: tuple
    domain_w_radius: float
    coefficient: complex = 1.0
    exponent: int = 2
    poly_terms: tuple[PolyTerm, ...] = field(default_factory=tuple)
    g_terms: tuple[GTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown form kind {self.kind!r}")
        if self.kind in ("constant", "pole_power") and self.dim != 1:
            raise DomainError(f"kind {self.kind} requires dim 1")
        if self.kind == "pole_power" and self.exponent < 2:
            raise DomainError("pole_power exponent must be >= 2")
        for *ij, _, alpha, beta in (*self.g_terms, *self.poly_terms):
            _check_term(self.dim, ij, alpha, beta)
        for key in ("base_z", "base_w", "domain_z_center", "domain_w_center"):
            _check_point(self.dim, key.removesuffix("_center"), getattr(self, key))

    def build(self, validate: bool = True) -> ClosedHoloForm:
        """Materialize the evaluator.  With ``validate``, polynomial entries are
        checked for closedness and holomorphy (they are the only kind that can
        silently violate the contracts); pass validate=False to build a
        negative control."""
        if self.kind == "pole_power":
            c, k = complex(self.coefficient), int(self.exponent)

            def coeff(Z, W, _c=c, _k=k):
                d = np.atleast_2d(Z)[..., 0] - np.atleast_2d(W)[..., 0]
                if (np.abs(d) < POLE_GUARD).any():
                    raise QuadratureError(f"point within {POLE_GUARD:g} of a singularity "
                                          "of the form")
                return (_c * int_power(d, -_k))[..., None, None]

        elif self.kind == "mixed_second_of":
            terms = Counter()  # repeated monomials sum, as repeated coeff lines do
            for c, a, b in self.g_terms:
                terms[tuple(a), tuple(b)] += complex(c)
            coeff = PolyMap(self.dim, dict(terms)).mixed_coefficient_evaluator()
        elif self.kind == "polynomial":
            coeff = PolyMap.matrix(self.dim, self.poly_terms)
        else:  # constant
            coeff = PolyMap.matrix(1, [(0, 0, self.coefficient, (0,), (0,))])

        form = ClosedHoloForm(self.dim, coeff, self.base_z, self.base_w, ProductDomain(
            self.domain_z_center, self.domain_z_radius, self.domain_w_center, self.domain_w_radius))
        if validate and self.kind == "polynomial":
            closed, anti, rule = check_closed_and_holomorphic(form, self.validation_samples())
            if not max(closed, anti) <= rule.tolerance:
                raise HolodetError(
                    f"form {self.name!r} failed the closedness/holomorphy check (closedness "
                    f"{closed:.3e}, antiholomorphic {anti:.3e}, tolerance {rule.tolerance:.1e})"
                )
        return form

    def validation_samples(self):
        """Three deterministic interior sample pairs for contract checks."""
        zc = np.asarray(self.domain_z_center, dtype=complex)
        wc = np.asarray(self.domain_w_center, dtype=complex)
        bz = np.asarray(self.base_z, dtype=complex)
        bw = np.asarray(self.base_w, dtype=complex)
        out = []
        for k in range(3):
            s = 0.25 + 0.1 * k
            phase = np.exp(2j * np.pi * (k + 1) / 5)
            out.append((
                bz + s * (zc - bz) + 0.15 * self.domain_z_radius * phase * np.ones_like(bz),
                bw + s * (wc - bw) + 0.15 * self.domain_w_radius * np.conj(phase) * np.ones_like(bw),
            ))
        return out


def _check_term(dim: int, ij, alpha, beta) -> None:
    """A term's indices lie in [0, dim) and each exponent block has dim entries."""
    if not all(0 <= i < dim for i in ij):
        raise DomainError(f"coeff indices {tuple(ij)} outside [0, {dim})")
    if len(alpha) != dim or len(beta) != dim:
        raise DomainError(f"exponents {tuple(alpha)} | {tuple(beta)} need {dim} per block")


def _check_point(dim: int, key: str, point) -> None:
    """A base or ball center has dim coordinates."""
    if len(point) != dim:
        raise DomainError(f"{key} gives a point of C^{len(point)}, not of C^{dim}")


_TALL = dict(domain_z_center=(5j,), domain_z_radius=4.9,
             domain_w_center=(-5j,), domain_w_radius=4.9)

#: The compiled-in forms the CLI refers to by name, made once at import.
BUILTIN_FORMS = MappingProxyType({e.name: e for e in (
    FormCatalogEntry("const1", "constant", 1, (1j,), (-1j,), coefficient=1.0, **_TALL),
    FormCatalogEntry("wp_genus1", "pole_power", 1, (1j,), (-1j,),
                     coefficient=1.0, exponent=2, **_TALL),
    FormCatalogEntry(
        "gmix_n2", "mixed_second_of", 2,
        (0.1 + 0.1j, 0.05j), (-0.1j, 0.2),
        (0j, 0j), 1.5, (0j, 0j), 1.5,
        g_terms=((1.0, (2, 0), (3, 0)), (1.0, (0, 1), (0, 1))),
    ),
    FormCatalogEntry(
        "bad_nonclosed", "polynomial", 2,
        (0.1 + 0.1j, 0.1), (-0.1 - 0.1j, -0.1),
        (0j, 0j), 1.5, (0j, 0j), 1.5,
        # Omega_11 = z^2 (the second z coordinate), Omega_22 = 1:
        # d_{z^2} Omega_11 = 1 but d_{z^1} Omega_21 = 0, so d Omega != 0
        poly_terms=(
            (0, 0, 1.0, (0, 1), (0, 0)),
            (1, 1, 1.0, (0, 0), (0, 0)),
        ),
    ),
)})


# --- text format -------------------------------------------------------------


def finite_floats(tokens, at: str = "") -> list[float]:
    """Number tokens as floats; a malformed or non-finite one is a DomainError led by ``at``."""
    try:
        vals = [float(t) for t in tokens]
    except ValueError as exc:
        raise DomainError(f"{at}{exc}") from None
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"{at}expected finite numbers, got {' '.join(tokens)!r}")
    return vals


def _complexes(tokens):
    vals = finite_floats(tokens)
    if len(vals) % 2:
        raise DomainError(f"odd number of floats for complex data: {tokens}")
    return tuple(complex(a, b) for a, b in zip(vals[::2], vals[1::2]))


def _split_bar(tokens):
    groups, cur = [], []
    for t in tokens:
        if t == "|":
            groups.append(cur)
            cur = []
        else:
            cur.append(t)
    groups.append(cur)
    return groups


def directive_lines(text: str):
    """Each directive of a catalog or recipe text as (line number, key, values).

    A ``#`` starts a comment; a line left blank holds no directive.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield lineno, words[0], words[1:]


def once(lines: dict, key: str, lineno: int, at: str = "") -> None:
    """Note in ``lines`` that ``key`` is given at ``lineno``; a key given before is a
    DomainError, led by ``at``, that names the line of its first time."""
    if key in lines:
        raise DomainError(f"{at}{key} already given at line {lines[key]}")
    lines[key] = lineno


#: The directives a form block holds at most once; ``coeff`` and ``gterm`` lines sum.
SINGLE_VALUED = ("kind", "dim", "coefficient", "exponent",
                 "base_z", "base_w", "domain_z", "domain_w")


def parse_catalog(text: str) -> dict[str, FormCatalogEntry]:
    """Parse the plain-text catalog format; see the module docstring.

    A malformed line, or a directive of SINGLE_VALUED given twice in one
    block, is a DomainError that names it.  A term, a base and a ball center
    are checked against ``dim`` at the block's ``end``, and an error there
    names their own line.
    """
    entries: dict[str, FormCatalogEntry] = {}
    fields = name = None
    for lineno, key, args in directive_lines(text):
        at = lineno
        try:
            if fields is not None and key in SINGLE_VALUED:
                once(lines, key, lineno)
            if key == "form":
                if fields is not None:
                    raise DomainError("nested 'form' block")
                (name,) = args
                fields, dim_checks, lines = {"poly_terms": (), "g_terms": ()}, [], {}
            elif key == "end":
                if fields is None:
                    raise DomainError("'end' outside a form block")
                if "dim" in fields:
                    for at, check, *args in dim_checks:
                        check(fields["dim"], *args)
                    at = lineno
                entries[name] = _entry_from_fields(name, fields)
                fields, name = None, None
            elif fields is None:
                raise DomainError(f"directive {key!r} outside a form block")
            elif key == "kind":
                (fields["kind"],) = args
            elif key == "dim":
                (fields["dim"],) = map(int, args)
                if fields["dim"] < 1:
                    raise DomainError(f"dim must be >= 1, got {fields['dim']}")
            elif key == "coefficient":
                (fields["coefficient"],) = _complexes(args)
            elif key == "exponent":
                (fields["exponent"],) = map(int, args)
            elif key in ("base_z", "base_w"):
                fields[key] = _complexes(args)
                dim_checks.append((lineno, _check_point, key, fields[key]))
            elif key in ("domain_z", "domain_w"):
                *center, radius = args
                fields[key + "_center"] = _complexes(center)
                dim_checks.append((lineno, _check_point, key, fields[key + "_center"]))
                (fields[key + "_radius"],) = finite_floats([radius])
                if fields[key + "_radius"] <= 0.0:
                    raise DomainError(f"{key} radius must be positive, got {radius}")
            elif key in ("gterm", "coeff"):
                head, alpha, beta = _split_bar(args)
                ij = [int(t) for t in head[:2]] if key == "coeff" else []
                (c,) = _complexes(head[len(ij):])
                term = (*ij, c, tuple(map(int, alpha)), tuple(map(int, beta)))
                fields["poly_terms" if key == "coeff" else "g_terms"] += (term,)
                dim_checks.append((lineno, _check_term, ij, term[-2], term[-1]))
            else:
                raise DomainError(f"unknown directive {key!r}")
        except (ValueError, DomainError) as exc:
            raise DomainError(f"catalog line {at}: {exc}") from None
    if fields is not None:
        raise DomainError("unterminated form block")
    return entries


def _entry_from_fields(name: str, f: dict) -> FormCatalogEntry:
    for req in ("kind", "dim", "base_z", "base_w", "domain_z_center", "domain_w_center"):
        if req not in f:
            raise DomainError(f"form {name!r} missing {req.split('_center')[0]}")
    return FormCatalogEntry(name=name, **f)


def load_catalog(path) -> dict[str, FormCatalogEntry]:
    # an undecodable byte becomes U+FFFD, so the parser names its line
    return parse_catalog(Path(path).read_text(encoding="utf-8", errors="replace"))
