"""The four seeded workloads: input streams, the call into holodet, the check.

Each workload is an endless, deterministic stream of ops made from
``random.Random(f"<workload>:<seed>")``.  The property that drives an op's
cost (torus height, grid size, disc height) follows a randomly shifted
golden-ratio sequence, and the op kind (C^2 op or grid, disc degree) cycles,
so every prefix of the stream, and with it every run of a given length, has
the workload's intended mix to within an op or two.  The remaining
properties are drawn i.i.d.
holodet itself receives only the generated inputs: CLI argv, a catalog file
and a recipe file, or plain numbers for the library workload.

Importing this module does not import holodet; ``load_program`` does.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import oracles

TWO_PI = 2.0 * math.pi

#: Absolute tolerance on log det (relative on det) and on extension values.
TORUS_TOL = 1e-8
EXTEND_TOL = 1e-8
#: Cone potentials: |q - oracle| <= POTENTIAL_TOL * max(1, |oracle|).
POTENTIAL_TOL = 1e-9
#: The verify-all tolerance for uniqueness residuals, also used for the
#: off-diagonal spot check of a fit against the independent extension.
DISC_TOL = 1e-5

#: Canonical heights are log-uniform in [1, TORUS_MAX_HEIGHT].  zeta_log_det
#: raises BudgetError once the reduced height passes about 130.4, so moduli
#: above TORUS_TIMED_MAX are kept out of the timed loop and run as a probe.
TORUS_MAX_HEIGHT = 200.0
TORUS_TIMED_MAX = 130.0
TORUS_WORD_MAX = 8

#: Every C2_EVERY-th potential_grid op is a single-point C^2 op on gmix_n2.
C2_EVERY = 4
GRID_MIN, GRID_MAX = 9, 64
#: Im z - Im w at the middle of a grid segment, log-uniform in this range.
GAP_MIN, GAP_MAX = 0.35, 6.0
#: Grid segments and w stay at least this far from the real axis.
MIN_HEIGHT = 0.15

DEGREES = (6, 8, 10)
DISC_HEIGHT_MIN, DISC_HEIGHT_MAX = 0.02, 3.0
DISC_RADIUS_SHARE = 0.2

RECIPE_TEXT = "constant -0.5\nf_mode split\n"

_MOBIUS = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "t": (1, -1, 0, 1)}


class WrongValue(Exception):
    """The program returned output that its oracle rejects."""


def error_kind(exc: BaseException) -> str:
    """Tally key of a failed op: a holodet error type, WrongValue or untyped:<type>."""
    if isinstance(exc, WrongValue):
        return "WrongValue"
    if type(exc).__module__.startswith("holodet"):
        return type(exc).__name__
    return "untyped:" + type(exc).__name__


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden(rng: random.Random) -> Iterator[float]:
    """Randomly shifted golden-ratio sequence in [0, 1): evenly spread in every prefix."""
    u = rng.random()
    while True:
        yield u
        u = (u + _GOLDEN) % 1.0


def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


_NUM = r"[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)"
_FMT = re.compile(rf"({_NUM})(?:({_NUM})i)?")


def parse_fmt(text: str) -> complex:
    """Read a number printed by holodet's CLI (``re`` or ``re+imi``)."""
    m = _FMT.fullmatch(text.strip())
    if m is None:
        raise WrongValue(f"unparseable number {text!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0.0))


def run_cli(prog, op) -> tuple[int, str]:
    """holodet.cli.main in-process, with its stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = prog.main(op["argv"])
    return rc, out.getvalue()


def _cli_output(result) -> str:
    rc, out = result
    if rc != 0:
        raise WrongValue(f"exit code {rc}")
    return out


# --- torus_sweep ---------------------------------------------------------------


def apply_word(word: str, zc: complex) -> complex:
    """Image of zc under the SL(2,Z) word (S, T, t = T^-1), Im part computed exactly."""
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        p, q, r, s = _MOBIUS[ch]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    den = c * zc + d
    n2 = abs(den) ** 2
    return complex(((a * zc + b) * den.conjugate()).real / n2, zc.imag / n2)


def torus_op(z: complex, height: float = 0.0, word: str = "") -> dict:
    return {"argv": ["torus-det", f"--z={_c(z)}", "--method", "both"],
            "z": [z.real, z.imag], "height": height, "word": word,
            "probe": height > TORUS_TIMED_MAX}


def torus_ops(seed: int, run_dir: str) -> Iterator[dict]:
    rng = random.Random(f"torus_sweep:{seed}")
    for u in golden(rng):
        height = TORUS_MAX_HEIGHT ** u
        zc = complex(rng.random() - 0.5, height)
        word = "".join("STt"[int(3 * rng.random())]
                       for _ in range(int((TORUS_WORD_MAX + 1) * rng.random())))
        yield torus_op(apply_word(word, zc), height, word)


def check_torus(op, result) -> int:
    out = _cli_output(result)
    fields = {}
    for line in out.splitlines():
        if line.startswith(("PASS", "FAIL")):
            fields["zeta0"] = line.split()[0]
        elif "=" in line:
            key, val = line.split("=", 1)
            fields[key] = val
    z = complex(*op["z"])
    try:
        spectral = parse_fmt(fields["spectral_log_det"]).real
        closed = parse_fmt(fields["closed_form_log_det"]).real
    except KeyError as exc:
        raise WrongValue(f"missing {exc}") from None
    if fields.get("zeta0") != "PASS":
        raise WrongValue("zeta(0) diagnostic did not pass")
    if not abs(spectral - oracles.torus_spectral_log_det(z)) <= TORUS_TOL:
        raise WrongValue(f"spectral log det {spectral!r} off the y^2|eta|^4 oracle")
    if not abs(closed - oracles.torus_closed_form(z)) <= TORUS_TOL:
        raise WrongValue(f"closed-form log det {closed!r} off the oracle")
    return 1


def torus_summary(ops) -> dict:
    n = len(ops)
    return {"moduli": n,
            "share_canonical_im_gt_130": sum(o["height"] > 130.0 for o in ops) / n}


# --- potential_grid ------------------------------------------------------------

_WP_GENUS1 = {"coefficient": [1.0, 0.0], "exponent": 2, "base_z": [0.0, 1.0], "base_w": [0.0, -1.0]}


def potential_catalog(seed: int) -> tuple[str, dict]:
    """Catalog text with pole_power forms pole3, pole4, and every form's data."""
    rng = random.Random(f"potential_grid-catalog:{seed}")
    forms = {"wp_genus1": _WP_GENUS1}
    blocks = []
    for k in (3, 4):
        c = cmath.rect(0.5 + 1.5 * rng.random(), TWO_PI * rng.random())
        bz = complex(0.6 * rng.random() - 0.3, 0.8 + 0.7 * rng.random())
        bw = complex(0.6 * rng.random() - 0.3, -0.8 - 0.7 * rng.random())
        name = f"pole{k}"
        forms[name] = {"coefficient": [c.real, c.imag], "exponent": k,
                       "base_z": [bz.real, bz.imag], "base_w": [bw.real, bw.imag]}
        blocks.append(
            f"form {name}\n  kind pole_power\n  dim 1\n"
            f"  coefficient {c.real!r} {c.imag!r}\n  exponent {k}\n"
            f"  base_z {bz.real!r} {bz.imag!r}\n  base_w {bw.real!r} {bw.imag!r}\n"
            "  domain_z 0 5 4.9\n  domain_w 0 -5 4.9\nend\n")
    return "".join(blocks), forms


def _in_z_ball(p: complex) -> bool:
    # the tall domains of the catalog: balls of radius 4.9 around +5i and -5i
    return abs(p - 5j) <= 4.9 - 1e-6


def grid_op(catalog: str, form: str, form_data: dict, a: complex, b: complex, w: complex,
            n: int) -> dict:
    points = [a + (k / (n - 1)) * (b - a) for k in range(n)]
    return {"argv": ["potential", "--form", form, "--catalog", catalog,
                     f"--at={_c(a)};{_c(w)}", f"--grid={_c(a)}:{_c(b)}:{n}"],
            "kind": "grid", "form": form, "form_data": form_data,
            "a": [a.real, a.imag], "b": [b.real, b.imag],
            "w": [w.real, w.imag], "n": n,
            "near_pole": sum(abs(p - w) < 1.0 for p in points)}


def _grid_op(rng, catalog, forms, size_u) -> dict:
    form = ("wp_genus1", "pole3", "pole4")[int(3 * rng.random())]
    n = GRID_MIN + int((GRID_MAX - GRID_MIN + 1) * size_u)
    gap = GAP_MIN * (GAP_MAX / GAP_MIN) ** rng.random()
    for _ in range(1000):
        wy = MIN_HEIGHT + (gap - 2 * MIN_HEIGHT) * rng.random()
        zy = gap - wy
        w = complex(0.6 * rng.random() - 0.3, -wy)
        xc = w.real + rng.random() - 0.5
        half = 0.1 + 0.5 * rng.random()
        tilt = 0.2 * zy * (2.0 * rng.random() - 1.0)
        a, b = complex(xc - half, zy - tilt), complex(xc + half, zy + tilt)
        if _in_z_ball(a) and _in_z_ball(b) and _in_z_ball(w.conjugate()):
            return grid_op(catalog, form, forms[form], a, b, w, n)
    raise RuntimeError("no grid segment fits the form domain")


def gmix_op(catalog: str, z, w) -> dict:
    spec = lambda v: ":".join(_c(c) for c in v)
    return {"argv": ["potential", "--form", "gmix_n2", "--catalog", catalog,
                     f"--at={spec(z)};{spec(w)}"],
            "kind": "at", "z": [[c.real, c.imag] for c in z], "w": [[c.real, c.imag] for c in w]}


def _ball_point(rng, dim: int = 2) -> list[complex]:
    # C^2 point at norm 0.2..1.4 inside gmix_n2's balls of radius 1.5
    v = [complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(dim)]
    scale = (0.2 + 1.2 * rng.random()) / math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c * scale for c in v]


def potential_ops(seed: int, run_dir: str) -> Iterator[dict]:
    rng = random.Random(f"potential_grid:{seed}")
    catalog = f"{run_dir}/catalog.txt"
    forms = potential_catalog(seed)[1]
    sizes = golden(rng)
    while True:
        for _ in range(C2_EVERY - 1):
            yield _grid_op(rng, catalog, forms, next(sizes))
        yield gmix_op(catalog, _ball_point(rng), _ball_point(rng))


def check_potential(op, result) -> int:
    out = _cli_output(result)
    if op["kind"] == "at":
        line = out.strip()
        if not line.startswith("q="):
            raise WrongValue(f"unexpected output {line[:80]!r}")
        q = parse_fmt(line[2:])
        z = [complex(*c) for c in op["z"]]
        w = [complex(*c) for c in op["w"]]
        expected = oracles.gmix_potential(z, w)
        if not abs(q - expected) <= POTENTIAL_TOL * max(1.0, abs(expected)):
            raise WrongValue(f"gmix_n2 potential {q!r} off the oracle {expected!r}")
        return 1

    form = op["form_data"]
    c, k = complex(*form["coefficient"]), form["exponent"]
    z0, w0 = complex(*form["base_z"]), complex(*form["base_w"])
    a, b, w, n = complex(*op["a"]), complex(*op["b"]), complex(*op["w"]), op["n"]
    rows = out.splitlines()
    if rows[:1] != ["re_z,im_z,re_w,im_w,re_q,im_q"] or len(rows) != n + 1:
        raise WrongValue(f"grid CSV has {len(rows) - 1} rows, expected {n}")
    for j, row in enumerate(rows[1:]):
        try:
            zr, zi, wr, wi, qr, qi = (float(v) for v in row.split(","))
        except ValueError:
            raise WrongValue(f"malformed CSV row {row[:80]!r}") from None
        z, q = complex(zr, zi), complex(qr, qi)
        zj = a + (j / (n - 1)) * (b - a)
        if abs(z - zj) > 1e-12 * (1.0 + abs(zj)) or complex(wr, wi) != w:
            raise WrongValue(f"grid row {j} is at ({z}, {complex(wr, wi)})")
        expected = oracles.pole_potential(c, k, z, w, z0, w0)
        if not abs(q - expected) <= POTENTIAL_TOL * max(1.0, abs(expected)):
            raise WrongValue(f"{op['form']} potential {q!r} off the oracle {expected!r}")
    return n


def potential_summary(ops) -> dict:
    grids = [o for o in ops if o["kind"] == "grid"]
    targets = sum(o["n"] for o in grids)
    return {"ops": len(ops),
            "share_c2_ops": (len(ops) - len(grids)) / len(ops),
            "grid_targets": targets,
            "share_targets_near_pole": sum(o["near_pole"] for o in grids) / max(targets, 1)}


# --- extend_split --------------------------------------------------------------


def extend_op(recipe: str, z: complex, w: complex) -> dict:
    return {"argv": ["extend", f"--point={_c(z)};{_c(w)}", "--recipe", recipe],
            "z": [z.real, z.imag], "w": [w.real, w.imag]}


def extend_ops(seed: int, run_dir: str) -> Iterator[dict]:
    rng = random.Random(f"extend_split:{seed}")
    recipe = f"{run_dir}/recipe.txt"
    while True:
        z = complex(rng.random() - 0.5, 0.6 + 1.9 * rng.random())
        wbar = complex(rng.random() - 0.5, 0.6 + 1.9 * rng.random())
        yield extend_op(recipe, z, wbar.conjugate())


def check_extend(op, result) -> int:
    value = parse_fmt(_cli_output(result))
    expected = oracles.split_extension(complex(*op["z"]), complex(*op["w"]))
    if not abs(value - expected) <= EXTEND_TOL:
        raise WrongValue(f"extension {value!r} off the eta oracle {expected!r}")
    return 1


def extend_summary(ops) -> dict:
    return {"ops": len(ops)}


# --- diag_polarize -------------------------------------------------------------


def disc_op(center: complex, degree: int) -> dict:
    return {"center": [center.real, center.imag],
            "radius": DISC_RADIUS_SHARE * center.imag, "degree": degree}


def diag_ops(seed: int, run_dir: str) -> Iterator[dict]:
    rng = random.Random(f"diag_polarize:{seed}")
    for k, u in enumerate(golden(rng)):
        height = DISC_HEIGHT_MIN * (DISC_HEIGHT_MAX / DISC_HEIGHT_MIN) ** u
        yield disc_op(complex(rng.random() - 0.5, height), DEGREES[k % len(DEGREES)])


def run_diag(prog, op):
    """Sample the closed form on the disc, fit, and certify against the eta extension."""
    c, r, degree = complex(*op["center"]), op["radius"], op["degree"]
    samples = prog.DiagonalSampleSet.from_function(prog.closed_form_log_det, c, r,
                                                   2 * (degree + 1) ** 2)
    fit = prog.polarize_fit(samples, degree)

    def shifted_extension(z, w):
        return prog.genus1_extension(prog.ProductPoint(z, w)) - oracles.DIAGONAL_CONSTANT

    return fit, prog.uniqueness_residual(fit.evaluate, shifted_extension, c, r, degree)


def disc_spot_points(op) -> list[tuple[complex, complex]]:
    """Two off-diagonal points of the bidisc where a fit is compared to the oracle."""
    c, r = complex(*op["center"]), op["radius"]
    return [(c + 0.5 * r * cmath.exp(1j * th), c.conjugate() + 0.5 * r * cmath.exp(-2j * th))
            for th in (0.4, 2.5)]


def check_diag(op, result) -> int:
    fit, residual = result
    if not residual <= DISC_TOL:
        raise WrongValue(f"uniqueness residual {residual:.3e} above {DISC_TOL:g}")
    for z, w in disc_spot_points(op):
        if not abs(fit.evaluate(z, w) - oracles.split_extension(z, w)) <= DISC_TOL:
            raise WrongValue(f"fit off the eta oracle at ({z}, {w})")
    return 1


def diag_summary(ops) -> dict:
    return {"discs": len(ops),
            "share_height_lt_0.1": sum(o["center"][1] < 0.1 for o in ops) / len(ops),
            "ops_per_degree": {str(d): sum(o["degree"] == d for o in ops) for d in DEGREES}}


# --- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, str], Iterator[dict]]
    warmup: Callable[[str], dict]
    run: Callable
    #: check(op, result) returns the op's value count or raises WrongValue
    check: Callable
    summary: Callable
    #: layers predicted to take most of the traced wall time
    dominant: tuple
    files: Callable[[int], dict] = lambda seed: {}
    conditioning: Callable | None = None


# why each workload exists: bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload(
        "torus_sweep",
        torus_ops, lambda run_dir: torus_op(0.1 + 1.2j),
        run_cli, check_torus, torus_summary, ("torus_spectral",)),
    Workload(
        "potential_grid",
        potential_ops,
        lambda run_dir: grid_op(f"{run_dir}/catalog.txt", "wp_genus1", _WP_GENUS1,
                                -0.3 + 0.8j, 0.3 + 1.0j, 0.1 - 0.9j, GRID_MIN),
        run_cli, check_potential, potential_summary, ("potential_builder",),
        files=lambda seed: {"catalog.txt": potential_catalog(seed)[0]}),
    Workload(
        "extend_split",
        extend_ops, lambda run_dir: extend_op(f"{run_dir}/recipe.txt", 0.1 + 1.1j, -0.2 - 0.9j),
        run_cli, check_extend, extend_summary, ("potential_builder",),
        files=lambda seed: {"recipe.txt": RECIPE_TEXT}),
    Workload(
        "diag_polarize",
        diag_ops, lambda run_dir: disc_op(0.1 + 1.0j, 8),
        run_diag, check_diag, diag_summary, ("special_functions", "polarization"),
        conditioning=lambda result: result[0].conditioning),
)}


def write_inputs(name: str, seed: int, run_dir: Path) -> None:
    """Write the workload's input files (catalog, recipe) into run_dir."""
    for fname, text in WORKLOADS[name].files(seed).items():
        (run_dir / fname).write_text(text, encoding="utf-8")


def load_program() -> SimpleNamespace:
    """holodet's entry points that the harness calls, as one namespace."""
    from holodet import cli, extension, polarization, torus_spectral

    return SimpleNamespace(
        main=cli.main,
        closed_form_log_det=torus_spectral.closed_form_log_det,
        genus1_extension=extension.genus1_extension,
        ProductPoint=extension.ProductPoint,
        DiagonalSampleSet=polarization.DiagonalSampleSet,
        polarize_fit=polarization.polarize_fit,
        uniqueness_residual=polarization.uniqueness_residual,
    )
