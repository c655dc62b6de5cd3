r"""Serializable catalog of closed (2,0)-forms with only mixed components.

The catalog file format is plain text, whitespace-separated key/value lines
inside ``form <name>`` ... ``end`` blocks; complex numbers are written as a
``re im`` pair, vectors as repeated pairs.  There is no expression
interpreter: polynomial data are explicit coefficient lists, so entries stay
auditable and parseable from any language.

Kinds
-----
constant         c * dz /\ dw in one variable
pole_power       c * (z - w)^{-k} dz /\ dw in one variable, k >= 2
polynomial       explicit monomials of each Omega_ij; must pass the
                 closedness/holomorphy check before use
mixed_second_of  Omega_ij = d^2 g / dz^i dw^j for an explicit polynomial g,
                 closed by construction

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

from dataclasses import dataclass, field

import numpy as np

from .errors import HolodetError
from .polymap import PolyMap
from .potential_builder import (
    ClosedHoloForm,
    ProductDomain,
    check_closed_and_holomorphic,
)

#: Closedness and anti-holomorphy residuals a form must stay within.
CONTRACT_TOLERANCE = 1e-8

# term of a polynomial entry: (i, j, coefficient, alpha, beta)
PolyTerm = tuple[int, int, complex, tuple[int, ...], tuple[int, ...]]
# term of a mixed_second_of entry: (coefficient, alpha, beta)
GTerm = tuple[complex, tuple[int, ...], tuple[int, ...]]

KINDS = ("constant", "pole_power", "polynomial", "mixed_second_of")


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
    poly_terms: tuple = field(default_factory=tuple)
    g_terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if self.kind in ("constant", "pole_power") and self.dim != 1:
            raise ValueError(f"kind {self.kind} requires dim 1")
        if self.kind == "pole_power" and self.exponent < 2:
            raise ValueError("pole_power exponent must be >= 2")

    def domain(self) -> ProductDomain:
        return ProductDomain.of_balls(
            np.asarray(self.domain_z_center, dtype=complex), self.domain_z_radius,
            np.asarray(self.domain_w_center, dtype=complex), self.domain_w_radius,
        )

    def build(self, validate: bool = True) -> ClosedHoloForm:
        """Materialize the evaluator.  With ``validate``, polynomial entries are
        checked for closedness and holomorphy (they are the only kind that can
        silently violate the contracts); pass validate=False to build a
        negative control."""
        dom = self.domain()
        clearance = None
        if self.kind == "constant":
            c = complex(self.coefficient)

            def coeff(Z, W, _c=c):
                return np.full((np.atleast_2d(Z).shape[0], 1, 1), _c, dtype=complex)

        elif self.kind == "pole_power":
            c, k = complex(self.coefficient), int(self.exponent)

            def coeff(Z, W, _c=c, _k=k):
                Z, W = np.atleast_2d(Z), np.atleast_2d(W)
                return (_c * (Z[:, 0] - W[:, 0]) ** (-_k)).reshape(-1, 1, 1)

            def clearance(Z, W):
                Z, W = np.atleast_2d(Z), np.atleast_2d(W)
                return float(np.min(np.abs(Z[:, 0] - W[:, 0])))

        elif self.kind == "mixed_second_of":
            terms = {(tuple(a), tuple(b)): complex(c) for c, a, b in self.g_terms}
            coeff = PolyMap(self.dim, terms).mixed_coefficient_evaluator()

        else:  # polynomial
            mats: dict[tuple[int, int], dict] = {}
            for i, j, c, a, b in self.poly_terms:
                key = (tuple(a), tuple(b))
                entry = mats.setdefault((int(i), int(j)), {})
                entry[key] = entry.get(key, 0.0) + complex(c)
            polys = {ij: PolyMap(self.dim, t) for ij, t in mats.items()}

            def coeff(Z, W, _polys=polys, _n=self.dim):
                Z, W = np.atleast_2d(Z), np.atleast_2d(W)
                out = np.zeros((Z.shape[0], _n, _n), dtype=complex)
                for (i, j), p in _polys.items():
                    out[:, i, j] = p(Z, W)
                return out

        form = ClosedHoloForm(self.dim, coeff, np.asarray(self.base_z, dtype=complex),
                              np.asarray(self.base_w, dtype=complex), dom,
                              pole_clearance=clearance)
        if validate and self.kind == "polynomial":
            closed, anti = check_closed_and_holomorphic(form, self.validation_samples())
            if not (closed <= CONTRACT_TOLERANCE and anti <= CONTRACT_TOLERANCE):
                raise HolodetError(
                    f"form {self.name!r} failed the closedness/holomorphy check "
                    f"(closedness {closed:.3e}, antiholomorphic {anti:.3e})"
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


def builtin_catalog() -> dict[str, FormCatalogEntry]:
    """The compiled-in forms the CLI refers to by name."""
    tall = dict(domain_z_center=(5j,), domain_z_radius=4.9,
                domain_w_center=(-5j,), domain_w_radius=4.9)
    entries = [
        FormCatalogEntry("const1", "constant", 1, (1j,), (-1j,), coefficient=1.0, **tall),
        FormCatalogEntry("wp_genus1", "pole_power", 1, (1j,), (-1j,),
                         coefficient=1.0, exponent=2, **tall),
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
    ]
    return {e.name: e for e in entries}


# --- text format -------------------------------------------------------------


def _floats(tokens):
    return [float(t) for t in tokens]


def _complexes(tokens):
    vals = _floats(tokens)
    if len(vals) % 2:
        raise ValueError(f"odd number of floats for complex data: {tokens}")
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


def parse_catalog(text: str) -> dict[str, FormCatalogEntry]:
    """Parse the plain-text catalog format; see the module docstring."""
    entries: dict[str, FormCatalogEntry] = {}
    fields = None
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        try:
            if key == "form":
                if fields is not None:
                    raise ValueError("nested 'form' block")
                (name,) = args
                fields = {"poly_terms": [], "g_terms": []}
            elif key == "end":
                if fields is None:
                    raise ValueError("'end' outside a form block")
                entries[name] = _entry_from_fields(name, fields)
                fields, name = None, None
            elif fields is None:
                raise ValueError(f"directive {key!r} outside a form block")
            elif key == "kind":
                (fields["kind"],) = args
            elif key == "dim":
                fields["dim"] = int(args[0])
            elif key == "coefficient":
                (fields["coefficient"],) = _complexes(args)
            elif key == "exponent":
                fields["exponent"] = int(args[0])
            elif key in ("base_z", "base_w"):
                fields[key] = _complexes(args)
            elif key in ("domain_z", "domain_w"):
                *center, radius = args
                fields[key + "_center"] = _complexes(center)
                fields[key + "_radius"] = float(radius)
            elif key == "gterm":
                coeffs, alpha, beta = _split_bar(args)
                (c,) = _complexes(coeffs)
                fields["g_terms"].append((c, tuple(int(a) for a in alpha),
                                          tuple(int(b) for b in beta)))
            elif key == "coeff":
                head, alpha, beta = _split_bar(args)
                i, j = int(head[0]), int(head[1])
                (c,) = _complexes(head[2:])
                fields["poly_terms"].append((i, j, c, tuple(int(a) for a in alpha),
                                             tuple(int(b) for b in beta)))
            else:
                raise ValueError(f"unknown directive {key!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from exc
    if fields is not None:
        raise ValueError("unterminated form block")
    return entries


def _entry_from_fields(name: str, f: dict) -> FormCatalogEntry:
    for req in ("kind", "dim", "base_z", "base_w",
                "domain_z_center", "domain_w_center"):
        if req not in f:
            raise ValueError(f"form {name!r} missing {req.split('_center')[0]}")
    return FormCatalogEntry(
        name=name, kind=f["kind"], dim=f["dim"],
        base_z=f["base_z"], base_w=f["base_w"],
        domain_z_center=f["domain_z_center"], domain_z_radius=f["domain_z_radius"],
        domain_w_center=f["domain_w_center"], domain_w_radius=f["domain_w_radius"],
        coefficient=f.get("coefficient", 1.0), exponent=f.get("exponent", 2),
        poly_terms=tuple(f["poly_terms"]), g_terms=tuple(f["g_terms"]),
    )


def load_catalog(path) -> dict[str, FormCatalogEntry]:
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())
