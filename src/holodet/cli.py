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
other library error, 2 input/configuration error (any DomainError; an output
file that cannot be written is one).
Reports are byte-deterministic for fixed inputs; wall-clock timing goes to
stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .catalog import builtin_catalog, load_catalog
from .errors import DomainError, HolodetError
from .extension import ProductPoint, assemble_extension, genus1_extension, genus1_recipe
from .polarization import load_diagonal_csv, polarize_fit
from .potential_builder import FIRST_ORDER, cone_potential, cone_potentials
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


def int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def parse_point_pair(text: str) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Parse 'z;w' where each block is coordinates 're,im' joined by ':'."""
    try:
        z_s, w_s = text.split(";")
        z = tuple(parse_complex(c) for c in z_s.split(":"))
        w = tuple(parse_complex(c) for c in w_s.split(":"))
        if len(z) != len(w):
            raise ValueError("z and w blocks have different lengths")
        return z, w
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 'z;w' as 're,im[:re,im...];re,im[:re,im...]', got {text!r}"
        ) from exc


def fmt(value) -> str:
    """15 significant digits; imaginary part only when nonzero."""
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.15g}"
    return f"{value.real:.15g}{value.imag:+.15g}i"


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_output(path, text: str) -> int:
    """Write text to the file at path, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(f"cannot write {path}: {exc.strerror or exc}", EXIT_BAD_INPUT)
    return EXIT_OK


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
    catalog = builtin_catalog()
    if args.catalog:
        catalog.update(load_catalog(args.catalog))
    if args.form not in catalog:
        raise KeyError(f"unknown form {args.form!r}; available: {', '.join(sorted(catalog))}")
    return catalog[args.form]


def cmd_potential(args) -> int:
    try:
        entry = _load_entry(args)
    except (KeyError, OSError, ValueError) as exc:
        return _error(exc, EXIT_BAD_INPUT)
    z, w = np.asarray(args.at[0], complex), np.asarray(args.at[1], complex)
    if z.size != entry.dim:
        return _error(f"form {entry.name!r} needs points in C^{entry.dim}, "
                      f"got {z.size} coordinate(s)", EXIT_BAD_INPUT)
    # without --verify, polynomial entries must pass their contract check
    form = entry.build(validate=not args.verify)

    if args.verify:
        samples = [(z, w)] + list(entry.validation_samples())
        if not _print_checks(potential_checks(form, z, w, samples, args.nodes)):
            return EXIT_CHECK_FAILED

    if args.grid:
        return _emit_grid(args, form, z, w)
    print(f"q={fmt(cone_potential(form, z, w, args.nodes))}")
    return EXIT_OK


def _emit_grid(args, form, z0, w) -> int:
    if form.dim != 1:
        return _error("--grid sweeps are supported for one-variable forms only", EXIT_BAD_INPUT)
    try:
        a_s, b_s, n_s = args.grid.split(":")
        a, b, n = parse_complex(a_s), parse_complex(b_s), int_at_least(1)(n_s)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        return _error(f"--grid expects 're,im:re,im:N', got {args.grid!r} ({exc})", EXIT_BAD_INPUT)
    wc = complex(w[0])
    zs = np.array([a + (k / max(n - 1, 1)) * (b - a) for k in range(n)])
    qs = cone_potentials(form, zs, np.full(n, wc), args.nodes).values
    rows = ["re_z,im_z,re_w,im_w,re_q,im_q"]
    for z, q in zip(zs, qs):
        rows.append(",".join(repr(float(v)) for v in (z.real, z.imag, wc.real, wc.imag, q.real, q.imag)))
    return _write_output(args.out, "\n".join(rows) + "\n")


# --- extend ------------------------------------------------------------------


def _parse_recipe_file(path):
    opts = {"constant": 0.0, "f_mode": "zero"}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *rest = line.split()
            if key not in opts:
                raise ValueError(f"unknown recipe directive {key!r}")
            if len(rest) != 1:
                raise ValueError(f"recipe directive {key!r} takes one value, got {len(rest)}")
            opts[key] = float(rest[0]) if key == "constant" else rest[0]
    return genus1_recipe(opts["constant"], f_mode=opts["f_mode"])


def cmd_extend(args) -> int:
    zb, wb = args.point
    if len(zb) != 1:
        return _error("extend works on the genus-1 model; give scalar z;w", EXIT_BAD_INPUT)
    point = ProductPoint(zb[0], wb[0])
    if args.recipe:
        try:
            recipe = _parse_recipe_file(args.recipe)
        except (OSError, ValueError) as exc:
            return _error(exc, EXIT_BAD_INPUT)
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
    try:
        samples = load_diagonal_csv(args.samples)
    except (OSError, ValueError, KeyError) as exc:
        return _error(f"malformed samples CSV: {exc}", EXIT_BAD_INPUT)
    fit = polarize_fit(samples, args.degree)
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
    if _write_output(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"):
        return EXIT_BAD_INPUT
    print(f"residual={fit.residual:.6e} conditioning={fit.conditioning:.6e}", file=sys.stderr)
    return EXIT_OK


# --- verify-all --------------------------------------------------------------


def cmd_verify_all(args) -> int:
    t0 = time.perf_counter()
    report = run_all()
    wall_time = time.perf_counter() - t0
    for line in report.summary_lines():
        print(line)
    if args.json and _write_output(args.json, report.to_json() + "\n"):
        return EXIT_BAD_INPUT
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
    q.add_argument("--nodes", type=int_at_least(2), default=64, metavar="N",
                   help=f"at most N quadrature nodes per axis; a cell runs first at "
                        f"min({FIRST_ORDER}, N) nodes, then at N, then splits in four")
    q.set_defaults(func=cmd_potential)

    q = sub.add_parser("extend", help="holomorphic extension at a point of H x Hbar")
    q.add_argument("--point", type=parse_point_pair, required=True, metavar="z;w")
    q.add_argument("--recipe", default=None, help="recipe file (constant / f_mode lines)")
    q.add_argument("--check", choices=("diagonal", "invariance", "holomorphy"), default=None)
    q.set_defaults(func=cmd_extend)

    q = sub.add_parser("polarize", help="fit diagonal CSV samples (re_z,im_z,re_val,im_val)")
    q.add_argument("--samples", required=True)
    q.add_argument("--degree", type=int_at_least(0), required=True)
    q.add_argument("--out", default=None, help="JSON output path (default stdout)")
    q.set_defaults(func=cmd_polarize)

    q = sub.add_parser("verify-all", help="run the verification suite")
    q.add_argument("--json", default=None, help="also write the JSON report here")
    q.set_defaults(func=cmd_verify_all)

    return p


def main(argv=None) -> int:
    """Run one subcommand; the one place a library error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        return _error(exc, EXIT_BAD_INPUT)
    except HolodetError as exc:
        return _error(exc, EXIT_CHECK_FAILED)


if __name__ == "__main__":
    sys.exit(main())
