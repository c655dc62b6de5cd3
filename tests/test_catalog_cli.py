import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from holodet.catalog import BUILTIN_FORMS, SINGLE_VALUED, load_catalog, parse_catalog
from holodet.cli import _emit_grid
from holodet.errors import DomainError, HolodetError
from holodet.polarization import DiagonalSampleSet
from holodet.potential_builder import check_closed_and_holomorphic, cone_potential, cone_potentials
from holodet.report import CheckResult, RunReport
from holodet.verify import form_contract_checks

ETA_I = "0.768225422326057"  # 15 significant digits of the eta oracle at i


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "holodet", *args],
                          capture_output=True, text=True, **kw)


# a dim-2 entry around one coeff or gterm line (line 4)
POLY_BLOCK = ("form bad\n  kind {kind}\n  dim 2\n  {line}\n"
              "  base_z 0.1 0.1 0.1 0\n  base_w -0.1 -0.1 -0.1 0\n"
              "  domain_z 0 0 0 0 1.5\n  domain_w 0 0 0 0 1.5\nend\n")

# a one-variable entry of the given kind, with one more line (line 3)
ONE_VAR_BLOCK = ("form bad\n  kind {kind}\n  {line}\n  dim 1\n  base_z 0 1\n  base_w 0 -1\n"
                 "  domain_z 0 5 4.9\n  domain_w 0 -5 4.9\nend\n")

#: (catalog text, the line its error must name): a term is checked against a
#: dim given before or after it, and a number or dim at its own line
MALFORMED_LINES = {
    "coeff-index-past-dim": (POLY_BLOCK.format(kind="polynomial", line="coeff 5 0 1 0 | 0 0 | 0 0"), 4),
    "gterm-exponents-not-dim": (POLY_BLOCK.format(kind="mixed_second_of", line="gterm 1 0 | 2 | 3 0"), 4),
    "gterm-before-dim": (ONE_VAR_BLOCK.format(kind="mixed_second_of", line="gterm 1 0 | 2 0 | 3"), 3),
    "coefficient-nan": (ONE_VAR_BLOCK.format(kind="pole_power", line="coefficient nan 0"), 3),
    "gterm-inf": (ONE_VAR_BLOCK.format(kind="mixed_second_of", line="gterm inf 0 | 1 | 1"), 3),
    "domain-radius-nan": (ONE_VAR_BLOCK.format(kind="constant", line="domain_z 0 5 nan"), 3),
    "domain-radius-negative": (ONE_VAR_BLOCK.format(kind="pole_power", line="domain_z 0 5 -2"), 3),
    "domain-radius-zero": (ONE_VAR_BLOCK.format(kind="pole_power", line="domain_w 0 -5 0"), 3),
    "dim-0": (POLY_BLOCK.format(kind="polynomial", line="").replace("dim 2", "dim 0"), 3),
    "dim-negative": (POLY_BLOCK.format(kind="polynomial", line="").replace("dim 2", "dim -1"), 3),
    "base-w-not-dim": (ONE_VAR_BLOCK.format(kind="pole_power", line="base_w 0 -1 0 0")
                       .replace("  base_w 0 -1\n", ""), 3),
    "domain-z-not-dim": (POLY_BLOCK.format(kind="mixed_second_of", line="gterm 1 0 | 2 0 | 3 0")
                         .replace("domain_z 0 0 0 0 1.5", "domain_z 0.5 0 1.5"), 7),
}

#: a block giving every single-valued directive once, at lines 2-9
FULL_BLOCK = ["form full", "  kind pole_power", "  dim 1", "  coefficient 1 0", "  exponent 2",
              "  base_z 0 1", "  base_w 0 -1", "  domain_z 0 5 4.9", "  domain_w 0 -5 4.9", "end"]

# a dim-2 entry whose z ball (line 6) gives one coordinate
ONE_COORDINATE_BALL = ("form bad\n  kind mixed_second_of\n  dim 2\n  gterm 1 0 | 2 0 | 3 0\n"
                       "  base_z 0.1 0 0.1 0\n  domain_z 0.5 0 1.5\n"
                       "  base_w 0 0 0 0\n  domain_w 0 0 1.5\nend\n")


class TestCatalog:
    def test_builtin_names(self):
        cat = BUILTIN_FORMS
        assert {"const1", "wp_genus1", "gmix_n2", "bad_nonclosed"} <= set(cat)

    def test_const1_value(self):
        form = BUILTIN_FORMS["const1"].build()
        q = cone_potential(form, 2j, -2j)
        assert abs(q - 1.0) < 1e-12

    def test_wp_genus1_is_pole_form(self):
        form = BUILTIN_FORMS["wp_genus1"].build()
        omega = form.coeff([2j], [-2j])[0]
        assert omega[0, 0] == pytest.approx((4j) ** -2)

    def test_gmix_closed(self):
        entry = BUILTIN_FORMS["gmix_n2"]
        closed, anti, rule = check_closed_and_holomorphic(entry.build(), entry.validation_samples())
        assert closed <= rule.tolerance and anti <= rule.tolerance

    def test_a_large_closed_polynomial_form_validates(self):
        # Omega = diag(1e8 (z^1)^2, 1e8) is closed; its anti-holomorphy residual, 1.04e-8, is
        # rounding of samples near 1e8, within 1e-11 plus the rule's rounding (about 2.2e-6)
        big = dataclasses.replace(BUILTIN_FORMS["bad_nonclosed"], name="big", poly_terms=(
            (0, 0, 1e8, (2, 0), (0, 0)), (1, 1, 1e8, (0, 0), (0, 0))))
        form = big.build()
        closed, anti, rule = check_closed_and_holomorphic(form, big.validation_samples())
        assert 1e-8 < anti <= rule.tolerance and closed <= rule.tolerance < 1e-5

    def test_a_small_closedness_defect_fails(self):
        # gmix_n2 with 1e-9 z^2 added to Omega_12: d_{z^2} Omega_12 = 1e-9, d_{z^1} Omega_22 = 0
        defect = dataclasses.replace(BUILTIN_FORMS["gmix_n2"], kind="polynomial", g_terms=(),
                                     poly_terms=((0, 0, 6.0, (1, 0), (2, 0)), (1, 1, 1.0, (0, 0), (0, 0)),
                                                 (0, 1, 1e-9, (0, 1), (0, 0))))
        closed, anti = form_contract_checks([(defect.build(validate=False), defect.validation_samples())])
        assert closed.residual == pytest.approx(1e-9, rel=1e-6) and not closed.passed
        assert closed.tolerance < 2e-11 and anti.passed
        with pytest.raises(HolodetError, match="closedness 1.000e-09"):
            defect.build()

    def test_polynomial_and_mixed_second_of_give_one_coefficient_map(self):
        # gmix_n2 is g = (z^1)^2 (w^1)^3 + z^2 w^2: Omega_11 = 6 z^1 (w^1)^2, Omega_22 = 1
        mixed = BUILTIN_FORMS["gmix_n2"]
        poly = dataclasses.replace(mixed, kind="polynomial", g_terms=(), poly_terms=(
            (0, 0, 6.0, (1, 0), (2, 0)), (1, 1, 1.0, (0, 0), (0, 0))))
        rng = np.random.default_rng(3)
        Z, W = (rng.uniform(-1, 1, (5, 2)) + 1j * rng.uniform(-1, 1, (5, 2)) for _ in range(2))
        assert np.array_equal(poly.build().coeff(Z, W), mixed.build().coeff(Z, W))

    def test_bad_nonclosed_fails_validation(self):
        entry = BUILTIN_FORMS["bad_nonclosed"]
        with pytest.raises(HolodetError, match="closedness"):
            entry.build()  # polynomial entries validate by default
        form = entry.build(validate=False)
        closed, _, _ = check_closed_and_holomorphic(form, entry.validation_samples())
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
        assert pole.coeff([2j], [-2j])[0, 0, 0] == pytest.approx(2 * (4j) ** -2)
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
        pytest.param(POLY_BLOCK.format(kind="polynomial", line="coeff 5 0 1 0 | 0 0 | 0 0"),
                     id="coeff-index-past-dim"),
        pytest.param(POLY_BLOCK.format(kind="polynomial", line="coeff -1 -1 1 0 | 0 0 | 0 0"),
                     id="coeff-index-negative"),
        pytest.param(POLY_BLOCK.format(kind="mixed_second_of", line="gterm 1 0 | 2 | 3 0"),
                     id="gterm-exponents-not-dim"),
        *(pytest.param(MALFORMED_LINES[k][0], id=k)
          for k in ("coefficient-nan", "gterm-inf", "dim-0", "dim-negative",
                    "domain-radius-negative", "domain-radius-zero")),
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(DomainError):
            parse_catalog(bad)

    @pytest.mark.parametrize("text, line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_parse_error_names_the_offending_line(self, text, line):
        with pytest.raises(DomainError, match=f"^catalog line {line}: "):
            parse_catalog(text)

    @pytest.mark.parametrize("key, field", [("base_z", "base_z"), ("base_w", "base_w"),
                                            ("domain_z", "domain_z_center"),
                                            ("domain_w", "domain_w_center")])
    def test_an_entry_refuses_a_point_of_another_dimension(self, key, field):
        gmix = BUILTIN_FORMS["gmix_n2"]
        with pytest.raises(DomainError, match=f"^{key} gives a point of C\\^1, not of C\\^2$"):
            dataclasses.replace(gmix, **{field: (0j,)})

    def test_repeated_gterms_sum(self):
        # g = 2 z^2 w^3 either way: Omega = 12 z w^2, 1.5 at (0.5, 0.5)
        def omega(*gterms):
            lines = "\n".join(f"gterm {t}" for t in gterms)
            entry = parse_catalog(ONE_VAR_BLOCK.format(kind="mixed_second_of", line=lines))["bad"]
            return entry.build().coeff([0.5], [0.5])[0, 0, 0]

        assert omega("1 0 | 2 | 3", "1 0 | 2 | 3") == omega("2 0 | 2 | 3") == pytest.approx(1.5)

    def test_repeated_coeffs_sum(self):
        def omega(*coeffs):
            lines = "\n".join(f"coeff 0 0 {c} | 0 | 0" for c in coeffs)
            entry = parse_catalog(ONE_VAR_BLOCK.format(kind="polynomial", line=lines))["bad"]
            return entry.build().coeff([0.5], [0.5])[0, 0, 0]

        assert omega("1 0", "1 0") == omega("2 0") == 2.0

    def test_the_full_block_gives_every_single_valued_directive(self):
        assert sorted(line.split()[0] for line in FULL_BLOCK[1:-1]) == sorted(SINGLE_VALUED)
        assert parse_catalog("\n".join(FULL_BLOCK * 2))["full"].coefficient == 1.0

    @pytest.mark.parametrize("first", range(2, 10), ids=[line.split()[0] for line in FULL_BLOCK[1:-1]])
    def test_a_single_valued_directive_given_twice_names_both_lines(self, first):
        # the last line won: a second coefficient line scaled the form silently
        line = FULL_BLOCK[first - 1]
        text = "\n".join([*FULL_BLOCK[:-1], line, "end"])
        key = line.split()[0]
        with pytest.raises(DomainError, match=f"^catalog line 10: {key} already given at line {first}$"):
            parse_catalog(text)

    def test_builtins_are_one_read_only_mapping(self):
        with pytest.raises(TypeError):
            BUILTIN_FORMS["wp_genus1"] = BUILTIN_FORMS["const1"]
        assert set(BUILTIN_FORMS) == {"const1", "wp_genus1", "gmix_n2", "bad_nonclosed"}


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
    (("potential", "--form", "const1", "--at", "0,2;0,-2"), ("--nodes", "64")),
], ids=["eta-terms", "verify-all-fast", "torus-det-tol", "polarize-svd-cutoff", "potential-nodes"])
def test_removed_option_exits_2(argv, removed):
    out = run_cli(*argv, *removed)
    assert out.returncode == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in out.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(("polarize", "--samples", "{csv}", "--degree", "-1"), id="argv2"),
])
def test_out_of_range_option_exits_2(argv, tmp_path):
    # argparse reads an integer; the library refuses it, once the samples are read
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("re_z,im_z,re_val,im_val\n0.1,0,0.01,0\n0,0.2,0.04,0\n")
    out = run_cli(*(a.format(csv=csv_path) for a in argv))
    assert out.returncode == 2
    assert out.stderr == "error: degree must be an integer >= 0, got -1\n"


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

    def test_grid_csv_matches_the_per_value_repr_form(self, tmp_path):
        # the bulk rows carry each float's repr, as one repr per numpy scalar did
        form = BUILTIN_FORMS["wp_genus1"].build()
        rng = np.random.default_rng(28)
        zs = rng.uniform(-0.5, 0.5, 64) + 1j * rng.uniform(0.3, 3.0, 64)
        zs[0] = complex(-0.0, 1.0)  # a signed zero keeps its sign
        wc = complex(0.1, -0.7)
        qs = cone_potentials(form, zs, np.full(zs.size, wc)).values
        rows = ["re_z,im_z,re_w,im_w,re_q,im_q"]
        for z, q in zip(zs, qs):
            rows.append(",".join(repr(float(v)) for v in (z.real, z.imag, wc.real, wc.imag,
                                                         q.real, q.imag)))
        out_path = tmp_path / "grid.csv"
        _emit_grid(str(out_path), form, zs, wc)
        assert out_path.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_grid_without_points_exits_2(self, n):
        out = run_cli("potential", "--form", "wp_genus1", "--at", "0,2;0,-2",
                      f"--grid=-0.4,1.0:0.4,1.0:{n}")
        assert out.returncode == 2
        assert out.stdout == "" and out.stderr.startswith("error:")

    @pytest.mark.parametrize("form, at, grid", [
        ("wp_genus1", "0,2;0,-2", "bad,1:0,1:3"),
        ("gmix_n2", "0,0.1:0,0.1;0,0:0,0", "0,1:0,1:3"),
    ], ids=["malformed", "two-variable"])
    def test_bad_grid_exits_2_before_verify_checks(self, form, at, grid):
        # the four contract checks ran and printed PASS before --grid was parsed
        out = run_cli("potential", "--form", form, "--at", at, "--verify", f"--grid={grid}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")

    def test_malformed_grid_number_names_the_option(self):
        out = run_cli("potential", "--form", "wp_genus1", "--at", "0,2;0,-2", "--grid=bad,1:0,1:3")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: --grid: could not convert string to float: 'bad'\n"

    def test_stencil_outside_domain_exits_2(self):
        # the point lies in the z-ball D(5i, 4.9); the first sample of its
        # derivative circle, z + 0.02, does not
        out = run_cli("potential", "--form", "wp_genus1", "--at=4.8995,5;0,-2", "--verify")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: z = (4.919499999999999+5j) outside the declared z-domain"]

    def test_base_point_outside_domain_exits_2(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(
            "form offbase\n  kind pole_power\n  dim 1\n"
            "  base_z 0 20\n  base_w 0 -1\n"
            "  domain_z 0 5 4.9\n  domain_w 0 -5 4.9\nend\n")
        out = run_cli("potential", "--form", "offbase", "--at", "0,2;0,-2",
                      "--catalog", str(path))
        assert out.returncode == 2
        assert out.stderr == "error: base_z = 20j outside the declared z-domain\n"

    def test_non_finite_target_exits_2_without_a_warning(self):
        out = run_cli("potential", "--form", "gmix_n2", "--at", "0,0.1:0,0.1;inf,0:0,0")
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["error: w targets must be finite"]

    def test_non_finite_target_under_verify_exits_2_without_a_warning(self):
        # the contract checks validate the targets before they evaluate the form
        out = run_cli("potential", "--form", "gmix_n2", "--at", "0,0.1:0,0.1;inf,0:0,0", "--verify")
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["error: w targets must be finite"]

    def test_target_near_the_pole_matches_the_closed_form(self, tmp_path):
        # pole gap 0.002 inside the balls D(i, 0.999) x D(-i, 0.999): a decay read
        # off the top coefficients alone accepted one aliased cell here, 1e-4 off
        import cmath

        path = tmp_path / "cat.txt"
        path.write_text(
            "form near\n  kind pole_power\n  dim 1\n  exponent 2\n"
            "  base_z 0 1\n  base_w 0 -1\n"
            "  domain_z 0 1 0.999\n  domain_w 0 -1 0.999\nend\n")
        out = run_cli("potential", "--form", "near", "--at", "0,0.001;0,-0.001",
                      "--catalog", str(path))
        assert out.returncode == 0
        value = complex(out.stdout.strip().removeprefix("q=").replace("i", "j"))
        z, w = 0.001j, -0.001j
        closed = cmath.log(z - w) - cmath.log(1j - w) - cmath.log(z + 1j) + cmath.log(2j)
        assert abs(value - closed) < 1e-12

    def test_quadrature_failure_exits_1(self, tmp_path):
        # overlapping balls: the chain from (0.5, -0.5) to (-0.5, 0.5) meets z = w
        path = tmp_path / "cat.txt"
        path.write_text(
            "form crossing\n  kind pole_power\n  dim 1\n"
            "  base_z 0.5 0\n  base_w -0.5 0\n"
            "  domain_z 0 0 1\n  domain_w 0 0 1\nend\n")
        out = run_cli("potential", "--form", "crossing", "--at=-0.5,0;0.5,0",
                      "--catalog", str(path))
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
        assert "point within 0.001 of a singularity of the form" in out.stderr

    @pytest.mark.parametrize("kind, line", [
        ("polynomial", "coeff 5 0 1 0 | 0 0 | 0 0"),
        ("polynomial", "coeff -1 -1 1 0 | 0 0 | 0 0"),
        ("polynomial", "coeff 1 1 1 0 | 0 | 0 0"),
        ("mixed_second_of", "gterm 1 0 | 2 | 3 0"),
    ], ids=["index-past-dim", "index-negative", "coeff-exponents", "gterm-exponents"])
    def test_malformed_polynomial_data_exits_2(self, tmp_path, kind, line):
        # an index outside [0, dim) or an exponent list not of length dim: an
        # IndexError traceback, or a silently wrapped index that --verify passed
        path = tmp_path / "cat.txt"
        path.write_text(POLY_BLOCK.format(kind=kind, line=line))
        out = run_cli("potential", "--form", "bad", "--at", "0.2,0:0.1,0;0,0.1:0,0",
                      "--verify", "--catalog", str(path))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: catalog line ")

    @pytest.mark.parametrize("text, line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_malformed_catalog_line_exits_2(self, tmp_path, text, line):
        # a non-finite number ran the quadrature into nan (exit 1), dim <= 0 failed
        # later on the point's size, and a term's error named the block's end
        path = tmp_path / "cat.txt"
        path.write_text(text)
        out = run_cli("potential", "--form", "bad", "--at", "0,1;0,-1", "--catalog", str(path))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith(f"error: catalog line {line}: ")

    def test_a_ball_of_another_dimension_names_its_line(self, tmp_path):
        # the z ball was read as centered at (0.5, 0.5), and (1.5, 1.5) got a value
        path = tmp_path / "cat.txt"
        path.write_text(ONE_COORDINATE_BALL)
        out = run_cli("potential", "--form", "bad", "--at", "1.5,0:1.5,0;0.1,0:0,0.1",
                      "--catalog", str(path))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: catalog line 6: domain_z gives a point of C^1, not of C^2\n"

    def test_a_repeated_coefficient_exits_2(self, tmp_path, capsys):
        # the second coefficient line won: q was five times the built-in value, exit 0
        from holodet.cli import main

        path = tmp_path / "cat.txt"
        path.write_text("\n".join([*FULL_BLOCK[:4], "  coefficient 5 0", *FULL_BLOCK[4:]]))
        assert main(["potential", "--form", "full", "--at", "0,2;0,-2", "--catalog", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: catalog line 5: coefficient already given at line 4\n")

    def test_a_catalog_that_redefines_a_builtin_leaves_the_builtins_as_they_are(self, tmp_path, capsys):
        from holodet import extension
        from holodet.cli import main

        path = tmp_path / "cat.txt"
        path.write_text("\n".join(FULL_BLOCK).replace("full", "wp_genus1").replace("1 0", "5 0"))
        argv = ["potential", "--form", "wp_genus1", "--at", "0,2;0,-2"]
        form = extension.genus1_pole_form()
        assert main(argv) == 0
        builtin = capsys.readouterr().out
        assert main([*argv, "--catalog", str(path)]) == 0
        redefined = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == builtin != redefined
        assert BUILTIN_FORMS["wp_genus1"].coefficient == 1.0
        assert extension.genus1_pole_form() is form
        assert form.coeff([2j], [-2j])[0, 0, 0] == (4j) ** -2

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

    def test_invariance_check_at_height_1e10(self):
        # |L| ~ 2.6e9 there: the rounding of 24 L failed STS and TTST at 1.2e-9 against 1e-9
        out = run_cli("extend", "--point=0,1e10;0,-1", "--check", "invariance")
        assert out.returncode == 0
        assert out.stdout.count("PASS invariance") == 5

    def test_invariance_check_tests_the_recipe(self, tmp_path):
        # the check evaluated genus1_extension whatever --recipe said
        path = tmp_path / "recipe.txt"
        path.write_text("constant -0.5\nf_mode split\n")
        point = ("--point", "0.1,1.1;-0.2,-0.9", "--check", "invariance")
        a = run_cli("extend", *point, "--recipe", str(path))
        b = run_cli("extend", *point)
        assert a.returncode == 0 and b.returncode == 0
        checks_a, checks_b = a.stdout.splitlines()[1:], b.stdout.splitlines()[1:]
        assert len(checks_a) == 5 and all(line.startswith("PASS invariance") for line in checks_a)
        assert checks_a != checks_b

    def test_invariance_orbit_outside_the_recipe_domain_exits_2(self, tmp_path):
        # TTST moves 0 + 2i to 1.8 + 0.4i, outside the pole form's z-ball D(5i, 4.9)
        path = tmp_path / "recipe.txt"
        path.write_text("constant -0.5\nf_mode split\n")
        out = run_cli("extend", "--point", "0,2;0,-3", "--recipe", str(path), "--check", "invariance")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")

    def test_holomorphy_check(self):
        out = run_cli("extend", "--point", "0.4,1.2;-0.2,-0.8", "--check", "holomorphy")
        assert out.returncode == 0

    @pytest.mark.parametrize("point", ["0.3,1e6;0,-1", "0.3,1e8;0,-1"])
    def test_holomorphy_check_at_large_heights(self, point):
        # the tolerance carries eps |L| / r, and |L| grows with the height
        out = run_cli("extend", f"--point={point}", "--check", "holomorphy")
        assert out.returncode == 0, out.stdout

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

    @pytest.mark.parametrize("text, message", [
        ("# a recipe\nconstant x\nf_mode split\n", "recipe line 2: could not convert string to float: 'x'"),
        ("constant -0.5\n\nfoo 1\n", "recipe line 3: unknown recipe directive 'foo'"),
        ("f_mode zero split\n", "recipe line 1: recipe directive 'f_mode' takes one value, got 2"),
        ("f_mode zero\nconstant inf\n", "recipe line 2: expected finite numbers, got 'inf'"),
        ("constant -0.5\nf_mode bogus\n",
         "recipe line 2: unknown f_mode 'bogus'; known: zero, eta, eta2, split"),
    ], ids=["not-a-number", "unknown", "two-values", "non-finite", "unknown-f-mode"])
    def test_malformed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "recipe.txt"
        path.write_text(text)
        out = run_cli("extend", "--point", "0,1;0,-1", "--recipe", str(path))
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("constant -0.5\nf_mode eta\nconstant 3\n", "recipe line 3: constant already given at line 1"),
        ("f_mode eta\n# C = -1/2\nconstant -0.5\nf_mode split\n",
         "recipe line 4: f_mode already given at line 1"),
    ], ids=["constant", "f_mode"])
    def test_a_repeated_directive_names_both_lines(self, tmp_path, capsys, text, message):
        # the last line won: the first recipe evaluated at C = 3 and exited 0
        from holodet.cli import main

        path = tmp_path / "recipe.txt"
        path.write_text(text)
        assert main(["extend", "--point", "0,1;0,-1", "--recipe", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, missing", [
        ("f_mode eta\n", "constant"), ("constant -0.5\n", "f_mode"),
        ("", "constant"), ("# no directive\n\n", "constant"),
    ], ids=["constant", "f_mode", "empty", "comment-only"])
    def test_a_missing_directive_is_named(self, tmp_path, capsys, text, missing):
        # a missing line took the default: an empty recipe printed the period term alone, exit 0
        from holodet.cli import main

        path = tmp_path / "recipe.txt"
        path.write_text(text)
        assert main(["extend", "--point", "0,1;0,-1", "--recipe", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: recipe missing {missing}\n")

    def test_the_zero_mode_written_out_is_the_period_term(self, tmp_path, capsys):
        import cmath

        from holodet.cli import main

        path = tmp_path / "recipe.txt"
        path.write_text("constant 0\nf_mode zero\n")
        assert main(["extend", "--point=0.5,1.2;-0.3,-0.8", "--recipe", str(path)]) == 0
        value = complex(capsys.readouterr().out.strip().replace("i", "j"))
        assert abs(value - cmath.log((0.5 + 1.2j - (-0.3 - 0.8j)) / 2j)) < 1e-14

    @pytest.mark.parametrize("text", ["constant nan\nf_mode zero\n", "constant inf\nf_mode eta\n",
                                      "constant -1e999\nf_mode split\n"],
                             ids=["nan", "inf", "overflow"])
    def test_non_finite_constant_exits_2(self, tmp_path, text):
        # a nan constant printed nan+nani and exited 0; inf also warned
        path = tmp_path / "recipe.txt"
        path.write_text(text)
        out = run_cli("extend", "--point", "0,1;0,-1", "--recipe", str(path))
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")

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

    @pytest.mark.parametrize("point", ["1e308,1;0,-1", "0,1;1e308,-1"], ids=["z", "w"])
    def test_overflowing_extension_exits_1(self, point):
        # -pi i (z - w) overflows, and the float-complex product printed inf+nani, exit 0
        out = run_cli("extend", f"--point={point}")
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr


class TestRecipeCache:
    """``extend --recipe`` reads its file on every call and builds each recipe once per process."""

    POINT = "--point=0.1,1.1;-0.2,-0.9"

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # no recipe built under a spy leaks into a later test
        from holodet import cli

        cli._recipe.cache_clear()
        yield
        cli._recipe.cache_clear()

    @pytest.fixture
    def builds(self, monkeypatch):
        """The number of ``pluriharmonic_split`` builds so far."""
        from holodet import extension

        count = [0]
        split = extension.pluriharmonic_split

        def counted(*args):
            count[0] += 1
            return split(*args)

        monkeypatch.setattr(extension, "pluriharmonic_split", counted)
        return count

    def extend(self, path, capsys):
        from holodet.cli import main

        code = main(["extend", self.POINT, "--recipe", str(path)])
        return code, capsys.readouterr().out

    @staticmethod
    def fresh_value(constant, f_mode):
        from holodet.cli import fmt
        from holodet.extension import ProductPoint, assemble_extension, genus1_recipe

        point = ProductPoint(0.1 + 1.1j, -0.2 - 0.9j)
        return fmt(assemble_extension(genus1_recipe(constant, f_mode), point)) + "\n"

    def test_three_calls_make_one_split_build(self, tmp_path, capsys, builds):
        path = tmp_path / "recipe.txt"
        path.write_text("constant -0.5\nf_mode split\n")
        outs = [self.extend(path, capsys) for _ in range(3)]
        assert builds[0] == 1
        assert outs == [(0, outs[0][1])] * 3
        assert outs[0][1] == self.fresh_value(-0.5, "split")

    @pytest.mark.parametrize("before, after, expected", [
        (("-0.5", "split"), ("-0.5", "eta"), 0),
        (("-0.5", "eta"), ("1", "eta"), 0),
        (("-0.5", "split"), ("0.25", "split"), 1),  # h is no longer pluriharmonic
    ], ids=["f_mode", "constant", "constant-split"])
    def test_a_rewritten_file_takes_effect_on_the_next_call(self, tmp_path, capsys, before, after,
                                                           expected):
        path = tmp_path / "recipe.txt"
        outs = []
        for constant, f_mode in (before, after):
            path.write_text(f"constant {constant}\nf_mode {f_mode}\n")
            outs.append(self.extend(path, capsys))
        assert outs[0] == (0, self.fresh_value(float(before[0]), before[1]))
        assert outs[1] == ((0, self.fresh_value(float(after[0]), after[1])) if expected == 0
                           else (1, ""))
        assert outs[0] != outs[1]

    def test_a_build_that_raises_raises_on_every_call(self, tmp_path, capsys, builds):
        path = tmp_path / "recipe.txt"
        path.write_text("constant 5\nf_mode split\n")
        for _ in range(2):
            assert self.extend(path, capsys) == (1, "")
        assert builds[0] == 2

    @pytest.mark.parametrize("f_mode", ["eta", "zero"])
    def test_signed_zero_constants_share_one_recipe(self, tmp_path, capsys, f_mode):
        from holodet import cli

        outs = []
        for constant in ("0", "-0"):
            path = tmp_path / f"{constant}.txt"
            path.write_text(f"constant {constant}\nf_mode {f_mode}\n")
            outs.append(self.extend(path, capsys))
        assert outs == [(0, self.fresh_value(0.0, f_mode))] * 2
        assert cli._recipe.cache_info()[:2] == (1, 1)  # one hit, one miss: one key

    def test_signed_zero_split_recipes_exit_1(self, tmp_path, capsys):
        for constant in ("0", "-0"):
            path = tmp_path / f"{constant}.txt"
            path.write_text(f"constant {constant}\nf_mode split\n")
            assert self.extend(path, capsys) == (1, "")

    def test_the_shared_split_cannot_be_changed(self, tmp_path):
        import inspect

        from holodet import cli

        coeffs = inspect.getclosurevars(cli._recipe(-0.5, "split").f).nonlocals["coeffs"]
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0


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


    @pytest.mark.parametrize("row", ["0.1,1.0,2.0", "0.1,1.0,2.0,0,5"], ids=["short", "long"])
    def test_row_of_the_wrong_width_exits_2(self, tmp_path, row):
        # a short row was a TypeError traceback; a long row lost its extra field
        path = tmp_path / "width.csv"
        path.write_text("re_z,im_z,re_val,im_val\n0,0.2,0.04,0\n-0.3,0,0.09,0\n"
                        f"0.2,0.1,0.05,0\n{row}\n")
        out = run_cli("polarize", "--samples", str(path), "--degree", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: malformed samples CSV row 5: ")


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


@pytest.mark.parametrize("argv", [
    ("potential", "--form", "const1", "--at", "0,2;0,-2", "--catalog"),
    ("extend", "--point", "0,1;0,-1", "--recipe"),
    ("polarize", "--degree", "1", "--samples"),
], ids=["catalog", "recipe", "samples"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8 \xe9\n"], ids=["missing", "undecodable"])
def test_unreadable_input_file_exits_2(tmp_path, argv, content):
    # a file that cannot be opened names its path; undecodable bytes reach the
    # parser as U+FFFD, which rejects them as malformed text
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    out = run_cli(*argv, str(path))
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert content is not None or str(path) in out.stderr
