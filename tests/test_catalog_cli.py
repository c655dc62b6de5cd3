import json
import math
import subprocess
import sys

import numpy as np
import pytest

from holodet.catalog import CONTRACT_TOLERANCE, builtin_catalog, load_catalog, parse_catalog
from holodet.errors import HolodetError
from holodet.polarization import DiagonalSampleSet
from holodet.potential_builder import check_closed_and_holomorphic, cone_potential
from holodet.report import CheckResult, RunReport

ETA_I = "0.768225422326057"  # 15 significant digits of the eta oracle at i


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "holodet", *args],
                          capture_output=True, text=True, **kw)


class TestCatalog:
    def test_builtin_names(self):
        cat = builtin_catalog()
        assert {"const1", "wp_genus1", "gmix_n2", "bad_nonclosed"} <= set(cat)

    def test_const1_value(self):
        form = builtin_catalog()["const1"].build()
        q = cone_potential(form, 2j, -2j)
        assert abs(q - 1.0) < 1e-12

    def test_wp_genus1_is_pole_form(self):
        form = builtin_catalog()["wp_genus1"].build()
        omega = form.coeff_at(2j, -2j)
        assert omega[0, 0] == pytest.approx((4j) ** -2)

    def test_gmix_closed(self):
        entry = builtin_catalog()["gmix_n2"]
        closed, anti = check_closed_and_holomorphic(entry.build(), entry.validation_samples())
        assert closed <= CONTRACT_TOLERANCE and anti <= CONTRACT_TOLERANCE

    def test_bad_nonclosed_fails_validation(self):
        entry = builtin_catalog()["bad_nonclosed"]
        with pytest.raises(HolodetError, match="closedness"):
            entry.build()  # polynomial entries validate by default
        form = entry.build(validate=False)
        closed, _ = check_closed_and_holomorphic(form, entry.validation_samples())
        assert closed > 1e-3

    def test_parse_text_catalog(self, tmp_path):
        text = """
        # a pole form and a synthetic two-variable form
        form mypole
          kind pole_power
          dim 1
          coefficient 2 0
          exponent 2
          base_z 0 1
          base_w 0 -1
          domain_z 0 5 4.9
          domain_w 0 -5 4.9
        end

        form mymix
          kind mixed_second_of
          dim 2
          gterm 1 0 | 2 0 | 3 0
          gterm 0 1 | 0 1 | 0 1
          base_z 0.1 0.1 0 0.05
          base_w 0 -0.1 0.2 0
          domain_z 0 0 0 0 1.5
          domain_w 0 0 0 0 1.5
        end
        """
        entries = parse_catalog(text)
        assert set(entries) == {"mypole", "mymix"}
        pole = entries["mypole"].build()
        assert pole.coeff_at(2j, -2j)[0, 0] == pytest.approx(2 * (4j) ** -2)
        mix = entries["mymix"].build()
        assert mix.dim == 2
        path = tmp_path / "cat.txt"
        path.write_text(text)
        assert set(load_catalog(path)) == {"mypole", "mymix"}

    @pytest.mark.parametrize("bad", [
        "form x\nkind nosuch\ndim 1\nend",
        "kind pole_power",
        "form x\nkind pole_power\ndim 1\nbase_z 0 1\nend",
        "form x\nkind pole_power\ndim 1\ncoefficient 1\nend",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_catalog(bad)


class TestReport:
    def test_json_is_deterministic_and_untimed(self):
        a = RunReport("verify-all", [CheckResult("alpha", 1e-12, 1e-9, "note")]).to_json()
        b = RunReport("verify-all", [CheckResult("alpha", 1e-12, 1e-9, "note")]).to_json()
        assert a == b
        assert "wall_time" not in a
        assert json.loads(a).keys() == {"command", "checks", "pass"}
        assert json.loads(a)["pass"] is True

    def test_failure_propagates(self):
        rep = RunReport("x", [CheckResult("good", 0.0, 1.0), CheckResult("bad", 2.0, 1.0)])
        assert not rep.passed
        assert rep.summary_lines()[-1].startswith("FAIL")


class TestCliEta:
    def test_value(self):
        out = run_cli("eta", "--z", "0,1")
        assert out.returncode == 0
        assert out.stdout.strip() == ETA_I

    def test_log_high_point(self):
        out = run_cli("eta", "--z", "0,10", "--log")
        assert out.returncode == 0
        assert float(out.stdout.strip()) == pytest.approx(-10 * math.pi / 12, abs=1e-12)

    def test_lower_half_plane_exits_2(self):
        out = run_cli("eta", "--z", "0,-1")
        assert out.returncode == 2
        assert "Im(z) must be positive" in out.stderr

    def test_unparsable_exits_2(self):
        assert run_cli("eta", "--z", "bogus").returncode == 2


@pytest.mark.parametrize("argv", [("eta", "--log", "--z=0.3,1e-300"), ("eta", "--z=0,5e-324"),
                                  ("torus-det", "--z=0,1e-310")])
def test_below_the_reach_of_the_reduction_exits_1(argv):
    # a BudgetError from the modular reduction, not a nan or a traceback
    out = run_cli(*argv)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert "nan" not in out.stdout


@pytest.mark.parametrize("argv, removed", [
    (("eta", "--z", "0,1"), ("--terms", "5")),
    (("verify-all",), ("--fast",)),
    (("torus-det", "--z", "0,1"), ("--tol", "1e-9")),
    (("polarize", "--samples", "unused.csv", "--degree", "1"), ("--svd-cutoff", "1e-10")),
], ids=["eta-terms", "verify-all-fast", "torus-det-tol", "polarize-svd-cutoff"])
def test_removed_option_exits_2(argv, removed):
    out = run_cli(*argv, *removed)
    assert out.returncode == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in out.stderr


@pytest.mark.parametrize("argv", [
    ("potential", "--form", "const1", "--at", "0,2;0,-2", "--nodes", "-4"),
    ("potential", "--form", "const1", "--at", "0,2;0,-2", "--nodes", "1"),
    ("polarize", "--samples", "unused.csv", "--degree", "-1"),
])
def test_out_of_range_option_exits_2(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert f"argument {argv[-2]}: must be >=" in out.stderr
    assert "Traceback" not in out.stderr


class TestCliTorusDet:
    def test_closed_form_value(self):
        out = run_cli("torus-det", "--z", "0,1", "--method", "closed-form")
        assert out.returncode == 0
        value = float(out.stdout.strip().split("=")[1])
        assert value == pytest.approx(1.310532925911510, abs=1e-12)

    def test_spectral_diagnostics(self):
        out = run_cli("torus-det", "--z", "0,1", "--method", "spectral")
        assert out.returncode == 0
        assert "PASS zeta0_diagnostic" in out.stdout

    @pytest.mark.parametrize("z", ["0,-1", "nan,1"])
    def test_domain_error_exits_2(self, z):
        out = run_cli("torus-det", "--z", z)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    def test_budget_error_exits_1(self, monkeypatch, capsys):
        # a failed certificate is not an input error: exit 1 with one line, not 2
        from holodet import cli
        from holodet.errors import BudgetError

        def fail(z):
            raise BudgetError("aggregate tail bound exceeds budget")

        monkeypatch.setattr(cli, "zeta_log_det", fail)
        assert cli.main(["torus-det", "--z", "0,1", "--method", "spectral"]) == 1
        assert capsys.readouterr().err == "error: aggregate tail bound exceeds budget\n"

    @pytest.mark.parametrize("z", ["0,1e155", "0,1e300", "0,1.7e308"])
    def test_beyond_the_box_cap_prints_only_the_error(self, z):
        # the overflowing lattice sums end in a BudgetError, with no numpy warning before it
        out = run_cli("torus-det", "--method", "spectral", f"--z={z}")
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1

    def test_height_135_exits_0(self, capsys):
        from holodet.cli import main

        assert main(["torus-det", "--z=0.5,135", "--method", "both"]) == 0
        assert "PASS zeta0_diagnostic" in capsys.readouterr().out

    @pytest.mark.parametrize("z", ["0,720", "0,0.001"])
    def test_above_height_710_prints_both_ratios(self, z):
        # det' and |eta| underflow at these reduced heights; their ratios do not
        out = run_cli("torus-det", f"--z={z}")
        assert out.returncode == 0 and "Traceback" not in out.stderr
        ratios = dict(line.split("=") for line in out.stdout.splitlines() if line.startswith("ratio"))
        assert float(ratios["ratio_to_y2_eta4"]) == pytest.approx(1.0, abs=1e-8)
        assert 0.0 < float(ratios["ratio_to_2pi_sqrty_eta2"]) < 1e-100

    def test_repeated_main_keeps_defaults(self, capsys):
        # main reuses one parser: the first call's --method must not stick
        from holodet.cli import main

        assert main(["torus-det", "--z", "0,1", "--method", "closed-form"]) == 0
        assert "spectral_log_det=" not in capsys.readouterr().out
        assert main(["torus-det", "--z", "0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in lines[:3]] == [
            "closed_form_log_det", "spectral_log_det", "tail_bound"]
        assert lines[3].startswith("PASS zeta0_diagnostic")

    def test_translation_invariant_output(self):
        a = run_cli("torus-det", "--z", "0,1", "--method", "both")
        b = run_cli("torus-det", "--z", "1,1", "--method", "both")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestCliPotential:
    def test_const1(self):
        out = run_cli("potential", "--form", "const1", "--at", "0,2;0,-2")
        assert out.returncode == 0
        value = complex(out.stdout.strip().removeprefix("q=").replace("i", "j"))
        assert abs(value - 1.0) < 1e-12

    def test_wp_verify_passes_and_matches_closed_form(self):
        import cmath

        out = run_cli("potential", "--form", "wp_genus1", "--at", "0,2;0,-2", "--verify")
        assert out.returncode == 0
        q_line = [l for l in out.stdout.splitlines() if l.startswith("q=")][0]
        value = complex(q_line.removeprefix("q=").replace("i", "j"))
        closed = (cmath.log(4j) - cmath.log(3j) - cmath.log(3j) + cmath.log(2j))
        assert abs(value - closed) < 1e-8

    def test_bad_nonclosed_verify_exits_1(self):
        out = run_cli("potential", "--form", "bad_nonclosed",
                      "--at", "0.2,0.1:0,0.1;0,-0.2:0.1,-0.1", "--verify")
        assert out.returncode == 1
        assert "FAIL" in out.stdout

    def test_bad_nonclosed_plain_use_is_gated(self):
        out = run_cli("potential", "--form", "bad_nonclosed",
                      "--at", "0.2,0.1:0,0.1;0,-0.2:0.1,-0.1")
        assert out.returncode == 1

    def test_verify_outside_domain_exits_2(self):
        # a DomainError met inside the --verify checks exits as it does without --verify
        out = run_cli("potential", "--form", "wp_genus1", "--at", "20,1.5;0.1,-1.5", "--verify")
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    def test_unknown_form_exits_2(self):
        assert run_cli("potential", "--form", "nosuch", "--at", "0,1;0,-1").returncode == 2

    def test_dim_mismatch_exits_2(self):
        assert run_cli("potential", "--form", "gmix_n2", "--at", "0,1;0,-1").returncode == 2

    def test_grid_csv(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        out = run_cli("potential", "--form", "wp_genus1", "--at", "0,2;0,-2",
                      "--grid=-0.4,1.0:0.4,1.0:5", "--out", str(out_path))
        assert out.returncode == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "re_z,im_z,re_w,im_w,re_q,im_q"
        assert len(lines) == 6

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_grid_without_points_exits_2(self, n):
        out = run_cli("potential", "--form", "wp_genus1", "--at", "0,2;0,-2",
                      f"--grid=-0.4,1.0:0.4,1.0:{n}")
        assert out.returncode == 2
        assert out.stdout == "" and out.stderr.startswith("error:")

    def test_base_point_outside_domain_exits_2(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(
            "form offbase\n  kind pole_power\n  dim 1\n"
            "  base_z 0 20\n  base_w 0 -1\n"
            "  domain_z 0 5 4.9\n  domain_w 0 -5 4.9\nend\n")
        out = run_cli("potential", "--form", "offbase", "--at", "0,2;0,-2",
                      "--catalog", str(path))
        assert out.returncode == 2
        assert "base_z outside" in out.stderr and "Traceback" not in out.stderr

    def test_quadrature_failure_exits_1(self):
        # below four nodes per axis the pole form's cells cannot certify
        out = run_cli("potential", "--form", "wp_genus1", "--at", "0.3,1;0,-1.2",
                      "--nodes", "3")
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    def test_custom_catalog(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(
            "form twopole\n  kind pole_power\n  dim 1\n  coefficient 2 0\n"
            "  exponent 2\n  base_z 0 1\n  base_w 0 -1\n"
            "  domain_z 0 5 4.9\n  domain_w 0 -5 4.9\nend\n")
        out = run_cli("potential", "--form", "twopole", "--at", "0,2;0,-2",
                      "--catalog", str(path))
        assert out.returncode == 0


class TestCliExtend:
    def test_value(self):
        out = run_cli("extend", "--point", "0,1;0,-1")
        assert out.returncode == 0
        assert float(out.stdout.strip()) == pytest.approx(0.3915943927068368, abs=1e-13)

    def test_diagonal_check(self):
        out = run_cli("extend", "--point", "0,1;0,-1", "--check", "diagonal")
        assert out.returncode == 0
        assert "PASS diagonal_imag" in out.stdout

    def test_invariance_check(self):
        out = run_cli("extend", "--point", "0,1;0,-1", "--check", "invariance")
        assert out.returncode == 0
        assert out.stdout.count("PASS invariance") == 5

    def test_holomorphy_check(self):
        out = run_cli("extend", "--point", "0.4,1.2;-0.2,-0.8", "--check", "holomorphy")
        assert out.returncode == 0

    def test_recipe_file(self, tmp_path):
        path = tmp_path / "recipe.txt"
        path.write_text("constant -0.5\nf_mode eta\n")
        a = run_cli("extend", "--point", "0.5,1.2;-0.3,-0.8", "--recipe", str(path))
        b = run_cli("extend", "--point", "0.5,1.2;-0.3,-0.8")
        assert a.returncode == 0
        va = complex(a.stdout.strip().replace("i", "j"))
        vb = complex(b.stdout.strip().replace("i", "j"))
        assert abs(va - vb) < 1e-10

    def test_domain_violation_exits_2(self, tmp_path):
        assert run_cli("extend", "--point", "0,-1;0,1").returncode == 2
        # 9.95i is a point of H outside the pole form's z-ball D(5i, 4.9)
        for mode in ("zero", "split"):
            path = tmp_path / f"{mode}.txt"
            path.write_text(f"constant -0.5\nf_mode {mode}\n")
            out = run_cli("extend", "--point", "0,9.95;0,-1", "--recipe", str(path))
            assert out.returncode == 2
            assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    def test_unknown_f_mode_exits_2(self, tmp_path):
        path = tmp_path / "recipe.txt"
        path.write_text("constant -0.5\nf_mode bogus\n")
        out = run_cli("extend", "--point", "0,1;0,-1", "--recipe", str(path))
        assert out.returncode == 2
        assert "f_mode" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("directive", ["constant", "f_mode"])
    def test_directive_without_value_exits_2(self, tmp_path, directive):
        path = tmp_path / "recipe.txt"
        path.write_text(f"{directive}\n")
        out = run_cli("extend", "--point", "0,1;0,-1", "--recipe", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and directive in out.stderr
        assert "Traceback" not in out.stderr

    def test_other_library_error_exits_1(self, monkeypatch, capsys):
        from holodet import cli
        from holodet.errors import BudgetError

        def fail(point):
            raise BudgetError("budget exhausted")

        monkeypatch.setattr(cli, "genus1_extension", fail)
        assert cli.main(["extend", "--point", "0,1;0,-1"]) == 1
        assert capsys.readouterr().err == "error: budget exhausted\n"

    def test_non_finite_point_exits_2(self):
        out = run_cli("extend", "--point", "nan,1;0,-1")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr


class TestCliPolarize:
    def make_csv(self, tmp_path, count=30):
        samples = DiagonalSampleSet.from_function(lambda z: abs(z) ** 2, 0, 1.0, count)
        path = tmp_path / "samples.csv"
        path.write_text("re_z,im_z,re_val,im_val\n" + "".join(
            f"{p.real!r},{p.imag!r},{v.real!r},{v.imag!r}\n"
            for p, v in zip(samples.points.tolist(), samples.values.tolist())))
        return path

    def test_fit_to_json(self, tmp_path):
        path = self.make_csv(tmp_path)
        out_path = tmp_path / "coeffs.json"
        out = run_cli("polarize", "--samples", str(path), "--degree", "2",
                      "--out", str(out_path))
        assert out.returncode == 0
        payload = json.loads(out_path.read_text())
        a11 = complex(*payload["coefficients"][1][1])
        assert abs(a11 - 1.0) < 1e-8
        assert {"conditioning", "residual", "center", "radius", "degree"} <= payload.keys()

    def test_insufficient_samples_exits_1(self):
        pass  # covered below with an explicit tiny CSV

    def test_three_samples_degree_three(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("re_z,im_z,re_val,im_val\n0.1,0,0.01,0\n0,0.2,0.04,0\n-0.3,0,0.09,0\n")
        out = run_cli("polarize", "--samples", str(path), "--degree", "3")
        assert out.returncode == 1
        assert "insufficient samples" in out.stderr

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        out = run_cli("polarize", "--samples", str(path), "--degree", "2")
        assert out.returncode == 2

    @pytest.mark.parametrize("row", ["0.1,0,nan,0", "nan,0.1,0.01,0", "0.1,0,inf,0"],
                             ids=["nan value", "nan coordinate", "inf value"])
    def test_non_finite_sample_exits_2(self, tmp_path, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text("re_z,im_z,re_val,im_val\n0,0.2,0.04,0\n-0.3,0,0.09,0\n"
                        f"0.2,0.1,0.05,0\n{row}\n")
        out = run_cli("polarize", "--samples", str(path), "--degree", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "malformed samples CSV" in out.stderr and "Traceback" not in out.stderr


class TestCliVerifyAll:
    def test_suite_passes_quickly(self):
        import time

        t0 = time.perf_counter()
        out = run_cli("verify-all")
        elapsed = time.perf_counter() - t0
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1].startswith("PASS overall")
        assert "wall time" in out.stderr and "wall time" not in out.stdout
        assert elapsed < 15.0

    def test_suite_deterministic(self, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        a = run_cli("verify-all", "--json", str(j1))
        b = run_cli("verify-all", "--json", str(j2))
        assert a.stdout == b.stdout
        assert j1.read_bytes() == j2.read_bytes()
        checks = json.loads(j1.read_text())["checks"]
        assert all(type(c["pass"]) is bool for c in checks)


@pytest.mark.parametrize("argv", [
    ("potential", "--form", "wp_genus1", "--at", "0,2;0,-2", "--grid=-0.4,1.0:0.4,1.0:3",
     "--out"),
    ("polarize", "--samples", "{csv}", "--degree", "1", "--out"),
    ("verify-all", "--json"),
], ids=["potential-grid", "polarize", "verify-all"])
def test_unwritable_output_exits_2(tmp_path, argv):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("re_z,im_z,re_val,im_val\n0.1,0,0.01,0\n0,0.2,0.04,0\n"
                        "-0.3,0,0.09,0\n0,-0.1,0.01,0\n0.2,0.2,0.08,0\n")
    target = tmp_path / "missing" / "out.txt"
    out = run_cli(*(a.format(csv=csv_path) for a in argv), str(target))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
    assert str(target) in out.stderr
