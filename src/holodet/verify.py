"""One-shot verification suite behind ``holodet verify-all`` and the tests.

Every check pins its tolerance here, a contour check as ``Contour.tolerance``;
the functions return CheckResult lists that the CLI and the tests share.  The checks that
``torus-det``, ``potential --verify`` and ``extend --check`` print are the
parameterized functions below, which the suite calls with its own names and
grids.  All sample geometries are deterministic (fixed grids and a fixed
seed), so the report is byte-identical across runs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .catalog import BUILTIN_FORMS
from .errors import DomainError, HolodetError
from .extension import (
    ProductPoint,
    genus1_extension,
    genus1_pole_form,
    pluriharmonic_split,
    symmetrized_evaluator,
)
from .polarization import DiagonalSampleSet, polarize_fit, uniqueness_residual
from .polymap import random_polymap
from .potential_builder import (
    ClosedHoloForm,
    ProductDomain,
    check_closed_and_holomorphic,
    cone_potentials,
    verify_boundary_vanishing,
    verify_mixed_derivative,
)
from .report import CheckResult, RunReport
from .special_functions import log_eta
from .torus_spectral import SpectralDetResult, closed_form_log_det, zeta_log_det
from .wirtinger import NODES, RADIUS, contour

WORD_SEED = 20250814
DIAGONAL_CONSTANT = -0.5 * math.log(2.0 * math.pi)  # expected L(z, zbar) - closed form

_SPECTRAL_POINTS = (1j, 2j, 0.3 + 1.1j)

#: modular words of ``extend --check invariance``
_INVARIANCE_WORDS = ("T", "S", "STS", "TTST", "STT")


def _rule_check(name: str, residual: float, rule) -> CheckResult:
    """A check by ``wirtinger.contour``: the rule's tolerance; N, r, alias told."""
    return CheckResult(name, residual, rule.tolerance,
                       f"N={NODES} r={RADIUS:g} alias={rule.alias:.1e}")


# --- parameterized checks, shared by the suite and the CLI -------------------


def zeta0_check(r: SpectralDetResult, name: str = "zeta0_diagnostic",
                detail: str = "") -> CheckResult:
    """|zeta(0) + 1| of a spectral result: a flat torus has no constant heat coefficient."""
    tol = 1e-9
    res = abs(r.zeta_zero + 1.0)
    return CheckResult(name, res, tol, f"zeta(0)={r.zeta_zero:.12f}{detail}")


def _log_ratios(r: SpectralDetResult) -> tuple[float, float]:
    """log det'(Delta) less log(y^2 |eta|^4) and less log(2 pi y^(1/2) |eta|^2), at the reduced modulus."""
    log_y = math.log(r.modulus.imag)
    log_abs_eta = log_eta(r.modulus).real
    return (r.log_det - 2.0 * log_y - 4.0 * log_abs_eta,
            r.log_det - math.log(2.0 * math.pi) - 0.5 * log_y - 2.0 * log_abs_eta)


def normalization_ratios(r: SpectralDetResult) -> tuple[float, float]:
    """det'(Delta) over y^2 |eta|^4 and over 2 pi y^(1/2) |eta|^2, at the reduced modulus.

    Each ratio is the exponential of a difference of logs: det'(Delta) and
    |eta|^4 underflow above reduced height about 710.
    """
    sq, half = _log_ratios(r)
    return math.exp(sq), math.exp(half)


def form_contract_checks(cases, names=("form_closedness", "form_antiholomorphic")) -> list[CheckResult]:
    """Worst closedness and anti-holomorphy residuals over (form, pairs) cases, by their largest rule.

    An empty list of cases is a DomainError, raised before anything is evaluated.
    """
    if not cases:
        raise DomainError("no (form, pairs) cases to check")
    results = [check_closed_and_holomorphic(form, samples) for form, samples in cases]
    *worst, rounding, alias = np.max([(c, a, r.rounding, r.alias) for c, a, r in results], axis=0)
    rule = results[0][2]._replace(rounding=rounding, alias=alias)
    return [_rule_check(name, float(v), rule) for name, v in zip(names, worst)]


def boundary_check(form: ClosedHoloForm, pairs, name: str = "boundary_vanishing") -> CheckResult:
    """Worst |q(z, w0)|, |q(z0, w)| over the pairs."""
    tol = 1e-10
    return CheckResult(name, float(verify_boundary_vanishing(form, pairs).max()), tol)


def mixed_derivative_check(form: ClosedHoloForm, pairs,
                           name: str = "mixed_derivative") -> CheckResult:
    """Worst entrywise |d_z d_w q - Omega| over the pairs."""
    residuals, rule = verify_mixed_derivative(form, pairs)
    return _rule_check(name, float(residuals.max()), rule)


def potential_checks(form: ClosedHoloForm, z, w, samples) -> list[CheckResult]:
    """The checks of ``potential --verify``: contracts and boundary over samples, d_z d_w q at (z, w)."""
    return [*form_contract_checks([(form, samples)]),
            boundary_check(form, samples),
            mixed_derivative_check(form, [(z, w)])]


#: 5 x 5 grid on [-0.4, 0.4] x [0.8, 2] of the diagonal checks
_DIAGONAL_GRID = np.add.outer(np.linspace(-0.4, 0.4, 5), 1j * np.linspace(0.8, 2.0, 5)).ravel()


def diagonal_imag_check(evaluate, name: str = "diagonal_imag") -> CheckResult:
    """Worst |Im L(z, zbar)| of an extension over the diagonal grid, from one call of ``evaluate``."""
    tol = 1e-12
    worst = float(np.max(np.abs(evaluate(ProductPoint.diagonal(_DIAGONAL_GRID)).imag)))
    return CheckResult(name, worst, tol)


#: the generators of SL(2, Z) as moves of a point: T z = z + 1, S z = -1/z
_GENERATORS = {"T": lambda z: z + 1.0, "S": lambda z: -1.0 / z}


def _one_point(point: ProductPoint, what: str) -> None:
    """A DomainError unless ``point`` is a single (0-d) point, as the ``what`` checks need."""
    if point.z.ndim:
        raise DomainError(f"{what} checks one point (z, w), got points of shape {point.z.shape}")


def invariance_checks(evaluate, point: ProductPoint, words) -> list[CheckResult]:
    """|exp(24 (L(gamma p) - L(p))) - 1| of the extension ``evaluate`` per modular word gamma.

    For the eta extension exp(24 L) = (-pi i (z-w))^12 eta(z)^24 conj(eta(wbar))^24
    is exactly invariant under the diagonal action (the weight-12 cocycles
    of the eta factors cancel against (z-w)^12), so the residual is free of
    the branch of L.  A word over {T, S} acts by its generators, rightmost
    letter first, as its matrix product does; any other letter is a
    DomainError before anything is evaluated.  L(p) is evaluated once for
    all words.  The tolerance is 1e-9 plus the rounding of 24 L(gamma p) -
    24 L(p), 48 eps max(|L(p)|, |L(gamma p)|): one rounding of each value,
    which grows with the height as |L| ~ pi Im(z)/12.  A difference whose
    exp(24 .) passes the float range is the residual inf, a failed check.
    ``point`` is one point; an array point is a DomainError, raised first.
    """
    _one_point(point, "invariance")
    for ch in "".join(words):
        if ch not in _GENERATORS:
            raise DomainError(f"unknown generator {ch!r}; expected 'T' or 'S'")
    l_base = evaluate(point)
    out = []
    for word in words:
        z, w = point.z, point.w
        for ch in reversed(word):
            z, w = _GENERATORS[ch](z), _GENERATORS[ch](w)
        l_moved = evaluate(ProductPoint(z, w))
        tol = 1e-9 + 48.0 * float(np.finfo(float).eps * max(abs(l_base), abs(l_moved)))
        try:
            residual = abs(cmath.exp(24.0 * (l_moved - l_base)) - 1.0)
        except OverflowError:  # 24 Re(L(gamma p) - L(p)) past the float range of exp
            residual = math.inf
        out.append(CheckResult(f"invariance[{word}]", residual, tol))
    return out


def antiholomorphic_check(evaluate, z_points, w_points,
                          name: str = "antiholomorphic_residual") -> CheckResult:
    """Worst |d/dzbar| of L(., w) at each (z, w) of z_points and of L(z, .) at each of w_points.

    One call of ``evaluate`` at an array point; the rounding eps max|L| / r grows as |L| ~ pi y/6.
    """
    zp, wp = (np.array(points, dtype=complex).reshape(-1, 2) for points in (z_points, w_points))
    moving_z = np.arange(len(zp) + len(wp)) < len(zp)  # z of z_points, then w of w_points
    centers, fixed = np.concatenate([zp, wp[:, ::-1]]).T
    rule = contour(lambda p: evaluate(ProductPoint(np.where(moving_z, p, fixed),
                                                   np.where(moving_z, fixed, p))), centers)
    return _rule_check(name, float(np.abs(rule.modes[-1]).max()), rule)


def extend_checks(evaluate, point: ProductPoint, kind: str) -> list[CheckResult]:
    """The checks of ``extend --check diagonal|invariance|holomorphy`` around ``point``.

    The invariance and holomorphy checks take one point: an array point is a
    DomainError before ``evaluate`` is called.
    """
    if kind == "diagonal":
        return [diagonal_imag_check(evaluate)]
    if kind == "invariance":
        return invariance_checks(evaluate, point, _INVARIANCE_WORDS)
    _one_point(point, "holomorphy")
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
    res = max(abs(_log_ratios(r)[0]) for r in map(zeta_log_det, (0.5 + 135j, 0.001j)))
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
    pairs = _cone_test_pairs(10)
    assert all(abs(z - w) >= 1.0 for z, w in pairs)

    Z, W = np.array(pairs).T
    q = cone_potentials(form, Z, W).values
    cross = (Z - W) * (1j + 1j) / ((1j - W) * (Z + 1j))
    expq = float(np.max(np.abs(np.exp(q) - cross) / np.abs(cross)))
    return [
        mixed_derivative_check(form, pairs, "cone_mixed_derivative"),
        boundary_check(form, pairs, "cone_boundary_vanishing"),
        CheckResult("cone_exp_matches_closed_form", expq, 1e-8),
    ]


def _synthetic_forms():
    rng = np.random.default_rng(WORD_SEED)
    out = []
    for n in (1, 2, 3, 1, 2):
        g = random_polymap(n, degree=4, n_terms=10, rng=rng)
        dom = ProductDomain(np.zeros(n, complex), 1.2, np.zeros(n, complex), 1.2)
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
        Z = np.array([np.full(n, 0.45 + 0.3j), np.full(n, -0.35 + 0.15j)])
        W = np.array([np.full(n, -0.2 + 0.4j), np.full(n, 0.5 - 0.25j)])
        Z0, W0 = np.broadcast_to(form.base_z, Z.shape), np.broadcast_to(form.base_w, W.shape)
        q = cone_potentials(form, Z, W).values
        oracle = g(Z, W) - g(Z0, W) - g(Z, W0) + g(Z0, W0)
        worst_q = max(worst_q, float(np.max(np.abs(q - oracle))))
        cases.append((form, list(zip(Z, W))))
    return [
        CheckResult("synthetic_potential_identity", worst_q, 1e-9),
        *form_contract_checks(cases, ("synthetic_closedness", "synthetic_antiholomorphic")),
    ]


def check_nonclosed_negative_control() -> list[CheckResult]:
    entry = BUILTIN_FORMS["bad_nonclosed"]
    form = entry.build(validate=False)
    closed = check_closed_and_holomorphic(form, entry.validation_samples())[0]
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

    # d_z d_zbar u of u(z) = q~(z, zbar) is d_z d_w q~ at (z, zbar): the mode (1, 1) of q~
    z = np.array([1j, 1 + 2j, -0.5 + 1.5j])
    rule = contour(q_tilde, z, z.conj())
    worst = float(np.abs(rule.modes[1, 1] - (z - z.conj()) ** -2).max())
    return [
        CheckResult("symmetrizer_diagonal_real", imag_worst, 1e-11),
        _rule_check("symmetrizer_wp_reconstruction", worst, rule),
    ]


def check_genus1_extension() -> list[CheckResult]:
    consts = (genus1_extension(ProductPoint.diagonal(_DIAGONAL_GRID)).real
              - closed_form_log_det(_DIAGONAL_GRID))
    const_drift = float(np.ptp(consts))
    mean_const = float(np.mean(consts))
    pairs = _cone_test_pairs(4)
    return [
        diagonal_imag_check(genus1_extension, "genus1_diagonal_imag"),
        CheckResult("genus1_diagonal_constant", const_drift, 1e-9,
                    f"constant {mean_const:.12f}, expected {DIAGONAL_CONSTANT:.12f}"),
        antiholomorphic_check(genus1_extension, pairs, pairs, "genus1_antiholomorphic"),
    ]


def _random_words(count: int) -> list[str]:
    """Seeded words over {T, S} of length 1 to 4."""
    rng = np.random.default_rng(WORD_SEED)
    return ["".join(rng.choice(["T", "S"], size=int(rng.integers(1, 5)))) for _ in range(count)]


def check_mapping_class_invariance() -> list[CheckResult]:
    point = ProductPoint(0.2 + 1.3j, -0.4 - 0.9j)
    tested = ["T", "S"] + _random_words(5)
    worst = max(c.residual for c in invariance_checks(genus1_extension, point, tested))
    return [CheckResult("mapping_class_invariance", worst, 1e-9,
                        "words: " + ",".join(tested))]


def check_pluriharmonic_split() -> list[CheckResult]:
    cases = (
        (lambda z: (z * z).real,),
        (lambda z: np.exp(z).real,),
        (lambda z: np.log(np.abs(z - 5.0) ** 2),),
    )
    splits = [pluriharmonic_split(parts, 1j, 0.95) for parts in cases]
    ring = np.append(1j + 0.9 * np.exp(2j * math.pi * np.arange(12) / 12), 1j + 0.2)
    recon_worst = max(float(np.max(np.abs(h(ring) - 2.0 * f(ring).real)))
                      for (h,), f in zip(cases, splits))
    # the three f at once, on their last axis
    rule = contour(lambda p: np.stack([f(p) for f in splits], axis=-1),
                   np.array([1j + 0.3, 1j - 0.4 + 0.2j, 1j + 0.5j]))
    return [
        CheckResult("pluriharmonic_reconstruction", recon_worst, 1e-8),
        _rule_check("pluriharmonic_f_holomorphic", float(np.abs(rule.modes[-1]).max()), rule),
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
