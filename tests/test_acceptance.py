"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion runs through the shared implementations in holodet.verify so
the CLI ``verify-all`` and this module cannot drift apart.  Runtime bounds
are asserted where the criterion states one.
"""

import math
import subprocess
import sys
import time

import pytest

from holodet.extension import ProductPoint, genus1_extension
from holodet.torus_spectral import closed_form_log_det
from holodet.verify import (
    DIAGONAL_CONSTANT,
    check_cone_vs_closed_form,
    check_genus1_extension,
    check_mapping_class_invariance,
    check_nonclosed_negative_control,
    check_pluriharmonic_split,
    check_polarization_uniqueness,
    check_spectral_modular_invariance,
    check_spectral_normalization,
    check_symmetrizer,
    check_synthetic_form_contracts,
    run_all,
)


def report(number, title, checks, elapsed=None, budget=None):
    ok = all(c.passed for c in checks)
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}{stamp}")
    for c in checks:
        print("   " + c.line())
    assert ok, f"criterion {number} failed: {[c.name for c in checks if not c.passed]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def timed(func):
    t0 = time.perf_counter()
    out = func()
    return out, time.perf_counter() - t0


class TestAcceptance:
    def test_criterion_1_spectral_oracle_consistency(self):
        checks, dt = timed(check_spectral_normalization)
        report(1, "spectral oracle: zeta(0) and ratio constancy", checks, dt, budget=10.0)
        ratio_check = [c for c in checks if c.name == "spectral_ratio_constancy"][0]
        assert "matches" in ratio_check.detail  # records which normalization won

    def test_criterion_2_spectral_modular_invariance(self):
        checks, dt = timed(check_spectral_modular_invariance)
        report(2, "spectral determinant modular invariance", checks, dt, budget=10.0)

    def test_criterion_3_cone_potential_vs_closed_form(self):
        checks, dt = timed(check_cone_vs_closed_form)
        report(3, "cone potential vs explicit potential of (z-w)^-2", checks, dt, budget=2.0)

    def test_criterion_4_synthetic_form_contracts(self):
        checks, dt = timed(check_synthetic_form_contracts)
        report(4, "potential-equation contracts on synthetic forms", checks, dt, budget=5.0)

    def test_criterion_5_negative_control(self):
        checks, dt = timed(check_nonclosed_negative_control)
        proc = subprocess.run(
            [sys.executable, "-m", "holodet", "potential", "--form", "bad_nonclosed",
             "--at", "0.2,0.1:0,0.1;0,-0.2:0.1,-0.1", "--verify"],
            capture_output=True, text=True)
        cli_ok = proc.returncode == 1
        print(f"{'PASS' if cli_ok else 'FAIL'} criterion 5 (CLI): "
              f"potential --verify exit code {proc.returncode} (expected 1)")
        report(5, "non-closed form is rejected", checks, dt)
        assert cli_ok

    def test_criterion_6_symmetrizer(self):
        checks, dt = timed(check_symmetrizer)
        report(6, "symmetrized potential: diagonal realness and curvature", checks, dt)

    def test_criterion_7_genus1_extension(self):
        checks, dt = timed(check_genus1_extension)
        report(7, "eta extension: diagonal, constant, holomorphy", checks, dt)
        # the reported constant is -log(2 pi)/2
        z = 0.2 + 1.3j
        const = genus1_extension(ProductPoint.diagonal(z)).real - closed_form_log_det(z)
        assert const == pytest.approx(DIAGONAL_CONSTANT, abs=1e-12)
        assert DIAGONAL_CONSTANT == pytest.approx(-0.918938533204673, abs=1e-12)

    def test_criterion_8_mapping_class_invariance(self):
        checks, dt = timed(check_mapping_class_invariance)
        report(8, "exp(24 L) invariance under diagonal modular words", checks, dt)

    def test_criterion_9_pluriharmonic_split(self):
        checks, dt = timed(check_pluriharmonic_split)
        report(9, "pluriharmonic splitting h = f + conj(f)", checks, dt)

    def test_criterion_10_polarization_uniqueness(self):
        checks, dt = timed(check_polarization_uniqueness)
        report(10, "polarization uniqueness and perturbation detection", checks, dt)

    def test_corrupted_build_fails_named_check(self, monkeypatch):
        # wrong eta prefactor (z-dependent) must break ratio constancy
        import holodet.verify as verify_mod
        from holodet.special_functions import log_eta as true_log_eta

        monkeypatch.setattr(verify_mod, "log_eta",
                            lambda z: 1j * math.pi * z / 12 + true_log_eta(z))
        checks = verify_mod.check_spectral_normalization()
        bad = [c for c in checks if not c.passed]
        assert any(c.name == "spectral_ratio_constancy" for c in bad)

    def test_criterion_11_end_to_end_deterministic(self):
        t0 = time.perf_counter()
        first = run_all()
        second = run_all()
        elapsed = time.perf_counter() - t0
        ok = first.passed and second.passed
        identical = first.to_json() == second.to_json() and \
            first.summary_lines() == second.summary_lines()
        print(f"{'PASS' if ok and identical else 'FAIL'} criterion 11: "
              f"verify-all x2 {'byte-identical' if identical else 'DIVERGED'} "
              f"[{elapsed:.2f}s]")
        assert ok and identical
        assert elapsed < 120.0
