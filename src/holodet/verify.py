"""One-shot verification suite behind ``holodet verify-all`` and the tests.

Every check pins its tolerance here; the functions return CheckResult lists
so the CLI and the test suite share one implementation.  The checks that
``torus-det``, ``potential --verify`` and ``extend --check`` print are the
parameterized functions below, which the suite calls with its own names and
grids.  All sample geometries are deterministic (fixed grids and a fixed
seed), so the report is byte-identical across runs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .catalog import CONTRACT_TOLERANCE, builtin_catalog
from .errors import HolodetError
from .extension import (
    ProductPoint,
    genus1_extension,
    genus1_pole_form,
    modular_invariance_check,
    pluriharmonic_split,
    symmetrized_evaluator,
)
from .polarization import DiagonalSampleSet, polarize_fit, uniqueness_residual
from .polymap import random_polymap
from .potential_builder import (
    ClosedHoloForm,
    ProductDomain,
    check_closed_and_holomorphic,
    cone_potential,
    cone_potentials,
    verify_boundary_vanishing,
    verify_mixed_derivative,
)
from .report import CheckResult, RunReport
from .special_functions import log_eta
from .torus_spectral import SpectralDetResult, closed_form_log_det, zeta_log_det
from .wirtinger import dz_dzbar, wirtinger_dzbar

WORD_SEED = 20250814
DIAGONAL_CONSTANT = -0.5 * math.log(2.0 * math.pi)  # expected L(z, zbar) - closed form

_SPECTRAL_POINTS = (1j, 2j, 0.3 + 1.1j)

#: modular words of ``extend --check invariance``
_INVARIANCE_WORDS = ("T", "S", "STS", "TTST", "STT")


# --- parameterized checks, shared by the suite and the CLI -------------------


def zeta0_check(r: SpectralDetResult, name: str = "zeta0_diagnostic",
                detail: str = "") -> CheckResult:
    """|zeta(0) + 1| of a spectral result: a flat torus has no constant heat coefficient."""
    tol = 1e-9
    res = abs(r.zeta_zero + 1.0)
    return CheckResult(name, res, tol, f"zeta(0)={r.zeta_zero:.12f}{detail}")


def normalization_ratios(r: SpectralDetResult) -> tuple[float, float]:
    """det'(Delta) over y^2 |eta|^4 and over 2 pi y^(1/2) |eta|^2, at the reduced modulus.

    Each ratio is the exponential of a difference of logs: det'(Delta) and
    |eta|^4 underflow above reduced height about 710.
    """
    log_y = math.log(r.modulus.imag)
    log_abs_eta = log_eta(r.modulus).real
    return (math.exp(r.log_det - 2.0 * log_y - 4.0 * log_abs_eta),
            math.exp(r.log_det - math.log(2.0 * math.pi) - 0.5 * log_y - 2.0 * log_abs_eta))


def form_contract_checks(cases, names=("form_closedness", "form_antiholomorphic")) -> list[CheckResult]:
    """Worst closedness and anti-holomorphy residuals over (form, sample pairs) cases."""
    tol = CONTRACT_TOLERANCE
    residuals = [check_closed_and_holomorphic(form, samples) for form, samples in cases]
    closed = max(c for c, _ in residuals)
    anti = max(a for _, a in residuals)
    return [CheckResult(names[0], closed, tol), CheckResult(names[1], anti, tol)]


def boundary_check(form: ClosedHoloForm, pairs, nodes: int,
                   name: str = "boundary_vanishing") -> CheckResult:
    """Worst |q(z, w0)|, |q(z0, w)| over the pairs."""
    tol = 1e-10
    res = verify_boundary_vanishing(form, pairs, nodes)
    worst = float(res.max()) if res.size else 0.0
    return CheckResult(name, worst, tol)


def mixed_derivative_check(form: ClosedHoloForm, pairs, nodes: int,
                           name: str = "mixed_derivative") -> CheckResult:
    """Worst entrywise |FD d_z d_w q - Omega| over the pairs; an error fails the check."""
    tol = 1e-7
    try:
        worst = max(float(np.max(verify_mixed_derivative(form, z, w, nodes))) for z, w in pairs)
    except HolodetError as exc:
        return CheckResult(name, math.inf, tol, str(exc))
    return CheckResult(name, worst, tol)


def potential_checks(form: ClosedHoloForm, z, w, samples, nodes: int) -> list[CheckResult]:
    """The checks of ``potential --verify``: contracts and boundary over samples, d_z d_w q at (z, w)."""
    return [*form_contract_checks([(form, samples)]),
            boundary_check(form, samples, nodes),
            mixed_derivative_check(form, [(z, w)], nodes)]


#: 5 x 5 grid on [-0.4, 0.4] x [0.8, 2] of the diagonal checks
_DIAGONAL_GRID = tuple(complex(x, y) for x in np.linspace(-0.4, 0.4, 5)
                       for y in np.linspace(0.8, 2.0, 5))


def diagonal_imag_check(evaluate, name: str = "diagonal_imag") -> CheckResult:
    """Worst |Im L(z, zbar)| of an extension over the diagonal grid."""
    tol = 1e-12
    worst = max(float(abs(evaluate(ProductPoint.diagonal(z)).imag)) for z in _DIAGONAL_GRID)
    return CheckResult(name, worst, tol)


def invariance_checks(point: ProductPoint, words) -> list[CheckResult]:
    """Relative exp(24 L) invariance residual per modular word."""
    tol = 1e-9
    out = []
    for word in words:
        r = modular_invariance_check(point, word)
        out.append(CheckResult(f"invariance[{word}]", r.relative_residual, tol,
                               f"raw diff mod 2pi i/24: {abs(r.l_difference_mod):.3e}"))
    return out


def antiholomorphic_check(evaluate, z_points, w_points,
                          name: str = "antiholomorphic_residual") -> CheckResult:
    """Worst |d/dzbar| of L(., w) at each (z, w) of z_points and of L(z, .) at each of w_points."""
    tol = 1e-7
    worst = 0.0
    for z, w in z_points:
        worst = max(worst, abs(wirtinger_dzbar(lambda p: evaluate(ProductPoint(p, w)), z, 1e-4)))
    for z, w in w_points:
        worst = max(worst, abs(wirtinger_dzbar(lambda p: evaluate(ProductPoint(z, p)), w, 1e-4)))
    return CheckResult(name, worst, tol)


def extend_checks(evaluate, point: ProductPoint, kind: str) -> list[CheckResult]:
    """The checks of ``extend --check diagonal|invariance|holomorphy`` around ``point``."""
    if kind == "diagonal":
        return [diagonal_imag_check(evaluate)]
    if kind == "invariance":
        return invariance_checks(point, _INVARIANCE_WORDS)
    z, w = point.z, point.w
    shifts = (0.1, -0.15 + 0.2j)
    return [antiholomorphic_check(evaluate, [(z + d, w) for d in shifts],
                                  [(z + d, w - 0.1j) for d in shifts])]


# --- the verify-all suite -----------------------------------------------------


def check_spectral_normalization() -> list[CheckResult]:
    """zeta(0) = -1 and ratio constancy against the candidate closed forms."""
    out = []
    ratios_sq = []   # against y^2 |eta|^4
    ratios_half = []  # against 2 pi y^(1/2) |eta|^2
    for z in _SPECTRAL_POINTS:
        r = zeta_log_det(z)
        out.append(zeta0_check(r, name=f"zeta0_diagnostic[z={z}]",
                               detail=f", tail={r.tail_bound:.2e}"))
        sq, half = normalization_ratios(r)
        ratios_sq.append(sq)
        ratios_half.append(half)

    def spread(vals):
        mean = sum(vals) / len(vals)
        return max(abs(v / mean - 1.0) for v in vals)

    s_sq, s_half = spread(ratios_sq), spread(ratios_half)
    if s_sq <= 1e-8:
        detail = f"matches y^2|eta|^4 with constant {sum(ratios_sq)/3:.12f}"
        res = s_sq
    elif s_half <= 1e-8:
        detail = f"matches 2 pi y^(1/2)|eta|^2 with constant {sum(ratios_half)/3:.12f}"
        res = s_half
    else:
        detail = f"neither normalization constant (spreads {s_sq:.3e}, {s_half:.3e})"
        res = min(s_sq, s_half)
    out.append(CheckResult("spectral_ratio_constancy", res, 1e-8, detail))

    # reduced heights 135 and 1000, compared as logs: det' underflows there
    res = max(abs(r.log_det - 2.0 * math.log(r.modulus.imag) - 4.0 * log_eta(r.modulus).real)
              for r in map(zeta_log_det, (0.5 + 135j, 0.001j)))
    out.append(CheckResult("spectral_beyond_height_limit", res, 1e-8))
    return out


def check_spectral_modular_invariance() -> list[CheckResult]:
    z = 0.3 + 1.1j
    a = zeta_log_det(z).log_det
    b = zeta_log_det(-1.0 / z).log_det
    c = zeta_log_det(z + 1.0).log_det
    return [
        CheckResult("spectral_s_invariance", abs(a - b), 1e-8),
        CheckResult("spectral_t_invariance", abs(a - c), 1e-8),
    ]


def _cone_test_pairs(count: int):
    """Deterministic pairs with Im z > 0 > Im w and |z - w| >= 1."""
    pairs = []
    for k in range(count):
        x = -1.0 + 2.0 * k / max(count - 1, 1)
        z = complex(x, 0.7 + 0.1 * (k % 4))
        w = complex(-x * 0.8 + 0.05, -(0.6 + 0.08 * ((k + 2) % 5)))
        pairs.append((z, w))
    return pairs


def check_cone_vs_closed_form() -> list[CheckResult]:
    """The pole form (z-w)^{-2} against its explicit potential."""
    form = genus1_pole_form()
    nodes = 64
    pairs = _cone_test_pairs(10)
    assert all(abs(z - w) >= 1.0 for z, w in pairs)

    Z, W = np.array(pairs).T
    q = cone_potentials(form, Z, W, nodes).values
    cross = (Z - W) * (1j + 1j) / ((1j - W) * (Z + 1j))
    expq = float(np.max(np.abs(np.exp(q) - cross) / np.abs(cross)))
    return [
        mixed_derivative_check(form, pairs, nodes, "cone_mixed_derivative"),
        boundary_check(form, pairs, nodes, "cone_boundary_vanishing"),
        CheckResult("cone_exp_matches_closed_form", expq, 1e-8),
    ]


def _synthetic_forms():
    rng = np.random.default_rng(WORD_SEED)
    out = []
    for n in (1, 2, 3, 1, 2):
        g = random_polymap(n, degree=4, n_terms=10, rng=rng)
        dom = ProductDomain.of_balls(np.zeros(n, complex), 1.2, np.zeros(n, complex), 1.2)
        base_z = np.full(n, 0.1 + 0.1j)
        base_w = np.full(n, -0.1 - 0.05j)
        form = ClosedHoloForm(n, g.mixed_coefficient_evaluator(), base_z, base_w, dom)
        out.append((g, form))
    return out


def check_synthetic_form_contracts() -> list[CheckResult]:
    """mixed_second_of forms: potential identity, closedness, holomorphy."""
    worst_q = 0.0
    cases = []
    for g, form in _synthetic_forms():
        n = form.dim
        pts = [
            (np.full(n, 0.45 + 0.3j), np.full(n, -0.2 + 0.4j)),
            (np.full(n, -0.35 + 0.15j), np.full(n, 0.5 - 0.25j)),
        ]
        for zv, wv in pts:
            q = cone_potential(form, zv, wv)
            oracle = (g.at(zv, wv) - g.at(form.base_z, wv)
                      - g.at(zv, form.base_w) + g.at(form.base_z, form.base_w))
            worst_q = max(worst_q, abs(q - oracle))
        cases.append((form, pts))
    return [
        CheckResult("synthetic_potential_identity", worst_q, 1e-9),
        *form_contract_checks(cases, ("synthetic_closedness", "synthetic_antiholomorphic")),
    ]


def check_nonclosed_negative_control() -> list[CheckResult]:
    entry = builtin_catalog()["bad_nonclosed"]
    form = entry.build(validate=False)
    closed, _ = check_closed_and_holomorphic(form, entry.validation_samples())
    # inverted: passes when closedness > 1e-3; zero, from a broken check, fails as inf
    ratio = 1e-3 / closed if closed > 0 else math.inf
    return [CheckResult("nonclosed_negative_control", ratio, 1.0,
                        f"closedness residual {closed:.6e} must exceed 1e-3")]


def check_symmetrizer() -> list[CheckResult]:
    form = genus1_pole_form()
    q_tilde = symmetrized_evaluator(lambda Z, W: cone_potentials(form, Z, W).values)

    grid = np.array([complex(x, y) for x in (-0.4, -0.15, 0.1, 0.35)
                     for y in (0.8, 1.1, 1.4, 1.7, 2.0)])
    imag_worst = float(np.max(np.abs(q_tilde(grid, grid.conj()).imag)))

    z = np.array([1j, 1 + 2j, -0.5 + 1.5j])
    u = lambda p: q_tilde(p, p.conj()).real
    fd_worst = float(np.max(np.abs(dz_dzbar(u, z, 1e-3) - (z - z.conj()) ** -2)))
    return [
        CheckResult("symmetrizer_diagonal_real", imag_worst, 1e-11),
        CheckResult("symmetrizer_wp_reconstruction", fd_worst, 1e-6),
    ]


def check_genus1_extension() -> list[CheckResult]:
    consts = [genus1_extension(ProductPoint.diagonal(z)).real - closed_form_log_det(z)
              for z in _DIAGONAL_GRID]
    const_drift = max(consts) - min(consts)
    mean_const = sum(consts) / len(consts)
    pairs = _cone_test_pairs(4)
    return [
        diagonal_imag_check(genus1_extension, "genus1_diagonal_imag"),
        CheckResult("genus1_diagonal_constant", const_drift, 1e-9,
                    f"constant {mean_const:.12f}, expected {DIAGONAL_CONSTANT:.12f}"),
        antiholomorphic_check(genus1_extension, pairs, pairs, "genus1_antiholomorphic"),
    ]


def _random_words(count: int, max_len: int = 4):
    rng = np.random.default_rng(WORD_SEED)
    words = []
    while len(words) < count:
        length = int(rng.integers(1, max_len + 1))
        word = "".join(rng.choice(["T", "S"], size=length))
        words.append(word)
    return words


def check_mapping_class_invariance() -> list[CheckResult]:
    point = ProductPoint(0.2 + 1.3j, -0.4 - 0.9j)
    tested = ["T", "S"] + _random_words(5)
    worst = max(c.residual for c in invariance_checks(point, tested))
    return [CheckResult("mapping_class_invariance", worst, 1e-9,
                        "words: " + ",".join(tested))]


def check_pluriharmonic_split() -> list[CheckResult]:
    cases = {
        "re_z2": lambda z: (z * z).real,
        "re_exp": lambda z: np.exp(z).real,
        "log_abs": lambda z: np.log(np.abs(z - 5.0) ** 2),
    }
    recon_worst = 0.0
    anti_worst = 0.0
    ring = [1j + 0.9 * cmath.exp(2j * math.pi * k / 12) for k in range(12)] + [1j + 0.2]
    probe = (1j + 0.3, 1j - 0.4 + 0.2j, 1j + 0.5j)
    for name, h in cases.items():
        f = pluriharmonic_split(h, 1j, 0.95)
        for z in ring:
            recon_worst = max(recon_worst, abs(h(z) - 2.0 * f(z).real))
        for z in probe:
            anti_worst = max(anti_worst, abs(wirtinger_dzbar(f, z, 1e-3)))
    return [
        CheckResult("pluriharmonic_reconstruction", recon_worst, 1e-8),
        CheckResult("pluriharmonic_f_holomorphic", anti_worst, 1e-7),
    ]


def check_polarization_uniqueness() -> list[CheckResult]:
    center, radius, degree = 1.5j, 0.3, 8
    samples = DiagonalSampleSet.from_function(closed_form_log_det, center, radius,
                                              2 * (degree + 1) ** 2)
    fit = polarize_fit(samples, degree)

    def shifted_extension(z, w):
        return genus1_extension(ProductPoint(z, w)) - DIAGONAL_CONSTANT

    base = uniqueness_residual(fit.evaluate, shifted_extension, center, radius, degree)

    eps = 1e-4
    cbar = center.conjugate()

    def perturbed(z, w):
        return fit.evaluate(z, w) + eps * ((z - center) / radius) ** 2 * ((w - cbar) / radius)

    detected = uniqueness_residual(fit.evaluate, perturbed, center, radius, degree)
    return [
        CheckResult("polarization_uniqueness", base, 1e-5,
                    f"fit conditioning {fit.conditioning:.2e}"),
        CheckResult("polarization_perturbation_detected", abs(detected - eps), 0.5 * eps,
                    f"detected {detected:.6e}, injected {eps:.1e}"),
    ]


CRITERIA = (
    check_spectral_normalization,
    check_spectral_modular_invariance,
    check_cone_vs_closed_form,
    check_synthetic_form_contracts,
    check_nonclosed_negative_control,
    check_symmetrizer,
    check_genus1_extension,
    check_mapping_class_invariance,
    check_pluriharmonic_split,
    check_polarization_uniqueness,
)


def run_all() -> RunReport:
    """Run every verification group; the report is deterministic."""
    checks = []
    for func in CRITERIA:
        try:
            checks.extend(func())
        except HolodetError as exc:  # a crashed group is a failed check
            checks.append(CheckResult(func.__name__, math.inf, 0.0, str(exc)))
    return RunReport("verify-all", checks)
