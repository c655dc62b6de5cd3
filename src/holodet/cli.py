"""Command-line surface.

Subcommands
-----------
eta         Dedekind eta (or its canonical log) at a point of H
torus-det   determinant of the flat-torus Laplacian, closed form and/or
            spectral zeta oracle with its diagnostics
potential   cone potential of a catalog form, with optional verification
            and CSV grid sweeps
extend      the genus-1 holomorphic extension (or a recipe file), with
            diagonal / invariance / holomorphy checks
polarize    fit diagonal CSV samples to a polarized polynomial (JSON out)
verify-all  the verification suite

Conventions: complex numbers on the command line are ``re,im``; product
points are ``z;w``.  Exit codes: 0 success, 1 verification failure or any
other library error, 2 input error.  An input error is a DomainError (a point
outside its domain, or a malformed catalog, recipe or samples CSV) or an
OSError (a file that cannot be opened or written), and ``main`` alone maps it
to exit 2; argparse rejects a malformed option value itself.
Reports are byte-deterministic for fixed inputs; wall-clock timing goes to
stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .catalog import BUILTIN_FORMS, directive_lines, finite_floats, load_catalog, once
from .errors import DomainError, HolodetError
from .extension import F_MODES, ProductPoint, assemble_extension, genus1_extension, genus1_recipe
from .polarization import load_diagonal_csv, polarize_fit
from .potential_builder import cone_potential, cone_potentials
from .special_functions import eta, log_eta
from .torus_spectral import closed_form_log_det, zeta_log_det
from .verify import extend_checks, normalization_ratios, potential_checks, run_all, zeta0_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from exc


def parse_point_pair(text: str) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Parse 'z;w' where each block is coordinates 're,im' joined by ':'."""
    blocks = [tuple(parse_complex(c) for c in block.split(":")) for block in text.split(";")]
    if len(blocks) != 2 or len(blocks[0]) != len(blocks[1]):
        raise argparse.ArgumentTypeError(
            f"expected 'z;w' as 're,im[:re,im...];re,im[:re,im...]', got {text!r}")
    return blocks[0], blocks[1]


def fmt(value) -> str:
    """15 significant digits; imaginary part only when nonzero."""
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.15g}"
    return f"{value.real:.15g}{value.imag:+.15g}i"


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_output(path, text: str) -> None:
    """Write text to the file at path, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_checks(checks) -> bool:
    ok = True
    for c in checks:
        print(c.line())
        ok &= c.passed
    return ok


# --- eta ---------------------------------------------------------------------


def cmd_eta(args) -> int:
    print(fmt((log_eta if args.log else eta)(args.z)))
    return EXIT_OK


# --- torus-det ---------------------------------------------------------------


def cmd_torus_det(args) -> int:
    if args.method in ("closed-form", "both"):
        print(f"closed_form_log_det={fmt(closed_form_log_det(args.z))}")
    if args.method == "closed-form":
        return EXIT_OK
    r = zeta_log_det(args.z)
    print(f"spectral_log_det={fmt(r.log_det)}")
    print(f"tail_bound={r.tail_bound:.6e}")
    check = zeta0_check(r)
    print(check.line())
    if args.method == "both":
        ratio_sq, ratio_half = normalization_ratios(r)
        print(f"ratio_to_y2_eta4={fmt(ratio_sq)}")
        print(f"ratio_to_2pi_sqrty_eta2={fmt(ratio_half)}")
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


# --- potential ---------------------------------------------------------------


def _load_entry(args):
    catalog = {**BUILTIN_FORMS, **(load_catalog(args.catalog) if args.catalog else {})}
    if args.form not in catalog:
        raise DomainError(f"unknown form {args.form!r}; available: {', '.join(sorted(catalog))}")
    return catalog[args.form]


def cmd_potential(args) -> int:
    entry = _load_entry(args)
    z, w = np.asarray(args.at[0], complex), np.asarray(args.at[1], complex)
    if z.size != entry.dim:
        raise DomainError(f"form {entry.name!r} needs points in C^{entry.dim}, "
                          f"got {z.size} coordinate(s)")
    zs = _grid_points(args.grid, entry.dim) if args.grid else None
    # without --verify, polynomial entries must pass their contract check
    form = entry.build(validate=not args.verify)

    if args.verify:
        samples = [(z, w)] + list(entry.validation_samples())
        if not _print_checks(potential_checks(form, z, w, samples)):
            return EXIT_CHECK_FAILED

    if zs is not None:
        _emit_grid(args.out, form, zs, complex(w[0]))
        return EXIT_OK
    print(f"q={fmt(cone_potential(form, z, w))}")
    return EXIT_OK


def _grid_points(grid: str, dim: int) -> np.ndarray:
    """The N points of z from a to b that ``--grid=re,im:re,im:N`` names, for a one-variable form."""
    if dim != 1:
        raise DomainError("--grid sweeps are supported for one-variable forms only")
    parts = [finite_floats(part.split(","), "--grid: ") for part in grid.split(":")]
    n = parts[-1][0]
    if [len(p) for p in parts] != [2, 2, 1] or n < 1 or not n.is_integer():
        raise DomainError(f"--grid expects 're,im:re,im:N' with N >= 1, got {grid!r}")
    a, b, n = complex(*parts[0]), complex(*parts[1]), int(n)
    return np.array([a + (k / max(n - 1, 1)) * (b - a) for k in range(n)])


def _emit_grid(out, form, zs: np.ndarray, wc: complex) -> None:
    qs = cone_potentials(form, zs, np.full(zs.size, wc)).values
    w = f"{wc.real!r},{wc.imag!r}"
    rows = ["re_z,im_z,re_w,im_w,re_q,im_q"]
    rows += [f"{a!r},{b!r},{w},{c!r},{d!r}" for a, b, c, d in
             zip(zs.real.tolist(), zs.imag.tolist(), qs.real.tolist(), qs.imag.tolist())]
    _write_output(out, "\n".join(rows) + "\n")


# --- extend ------------------------------------------------------------------


def _parse_recipe_file(path):
    """A recipe from one ``constant`` and one ``f_mode`` line; a malformed or
    repeated line is a DomainError naming it, and so is a missing directive."""
    opts, lines = {}, {}
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    for lineno, key, values in directive_lines(text):
        at = f"recipe line {lineno}: "
        if key not in ("constant", "f_mode"):
            raise DomainError(f"{at}unknown recipe directive {key!r}")
        once(lines, key, lineno, at)
        if len(values) != 1:
            raise DomainError(f"{at}recipe directive {key!r} takes one value, got {len(values)}")
        (opts[key],) = finite_floats(values, at) if key == "constant" else values
        if key == "f_mode" and opts[key] not in F_MODES:
            raise DomainError(f"{at}unknown f_mode {opts[key]!r}; known: {', '.join(F_MODES)}")
    for key in ("constant", "f_mode"):
        if key not in opts:
            raise DomainError(f"recipe missing {key}")
    return genus1_recipe(opts["constant"], f_mode=opts["f_mode"])


def cmd_extend(args) -> int:
    zb, wb = args.point
    if len(zb) != 1:
        raise DomainError("extend works on the genus-1 model; give scalar z;w")
    point = ProductPoint(zb[0], wb[0])
    if args.recipe:
        recipe = _parse_recipe_file(args.recipe)
        evaluate = lambda p: assemble_extension(recipe, p)
    else:
        evaluate = genus1_extension
    if not args.check:
        print(fmt(evaluate(point)))
        return EXIT_OK
    checks = extend_checks(evaluate, point, args.check)
    print(f"value={fmt(evaluate(point))}")
    return EXIT_OK if _print_checks(checks) else EXIT_CHECK_FAILED


# --- polarize ----------------------------------------------------------------


def cmd_polarize(args) -> int:
    fit = polarize_fit(load_diagonal_csv(args.samples), args.degree)
    payload = {
        "degree": fit.degree,
        "center": [fit.center.real, fit.center.imag],
        "radius": fit.radius,
        "conditioning": fit.conditioning,
        "residual": fit.residual,
        "coefficients": [
            [[c.real, c.imag] for c in row] for row in fit.coefficients
        ],
    }
    _write_output(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"residual={fit.residual:.6e} conditioning={fit.conditioning:.6e}", file=sys.stderr)
    return EXIT_OK


# --- verify-all --------------------------------------------------------------


def cmd_verify_all(args) -> int:
    t0 = time.perf_counter()
    report = run_all()
    wall_time = time.perf_counter() - t0
    for line in report.summary_lines():
        print(line)
    if args.json:
        _write_output(args.json, report.to_json() + "\n")
    print(f"wall time: {wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``holodet`` parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="holodet", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eta", help="Dedekind eta at a point of the upper half plane")
    q.add_argument("--z", type=parse_complex, required=True, metavar="re,im")
    q.add_argument("--log", action="store_true", help="canonical log(eta) branch instead")
    q.set_defaults(func=cmd_eta)

    q = sub.add_parser("torus-det", help="flat-torus determinant (closed form / spectral)")
    q.add_argument("--z", type=parse_complex, required=True, metavar="re,im")
    q.add_argument("--method", choices=("closed-form", "spectral", "both"), default="both")
    q.set_defaults(func=cmd_torus_det)

    q = sub.add_parser("potential", help="cone potential of a catalog form")
    q.add_argument("--form", required=True)
    q.add_argument("--at", type=parse_point_pair, required=True, metavar="z;w")
    q.add_argument("--verify", action="store_true",
                   help="run boundary/closedness/mixed-derivative checks")
    q.add_argument("--grid", default=None, metavar="re,im:re,im:N",
                   help="sweep z along a segment (w fixed) and emit CSV")
    q.add_argument("--out", default=None, help="CSV output path (default stdout)")
    q.add_argument("--catalog", default=None, help="extra catalog file")
    q.set_defaults(func=cmd_potential)

    q = sub.add_parser("extend", help="holomorphic extension at a point of H x Hbar")
    q.add_argument("--point", type=parse_point_pair, required=True, metavar="z;w")
    q.add_argument("--recipe", default=None, help="recipe file (constant / f_mode lines)")
    q.add_argument("--check", choices=("diagonal", "invariance", "holomorphy"), default=None)
    q.set_defaults(func=cmd_extend)

    q = sub.add_parser("polarize", help="fit diagonal CSV samples (re_z,im_z,re_val,im_val)")
    q.add_argument("--samples", required=True)
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--out", default=None, help="JSON output path (default stdout)")
    q.set_defaults(func=cmd_polarize)

    q = sub.add_parser("verify-all", help="run the verification suite")
    q.add_argument("--json", default=None, help="also write the JSON report here")
    q.set_defaults(func=cmd_verify_all)

    return p


def main(argv=None) -> int:
    """Run one subcommand; the one place an input or library error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        return _error(exc, EXIT_BAD_INPUT)
    except HolodetError as exc:
        return _error(exc, EXIT_CHECK_FAILED)


if __name__ == "__main__":
    sys.exit(main())
