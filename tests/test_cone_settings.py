"""The cone quadrature and the derivative rule take no setting: both are fixed by module constants.

``FIRST_ORDER`` and ``MAX_ORDER`` in ``potential_builder`` fix the
Gauss-Legendre ladder of every cone cell, and ``NODES`` and ``RADIUS`` in
``wirtinger`` the circles of every derivative check.  The guard reads the
source with ``ast``, so a ``nodes`` or a step ``h`` parameter put back on a
public function of these layers or their checks fails here, and so does a
``--nodes`` option on ``holodet potential``.  A contour check's tolerance is
``Contour.tolerance`` alone: no module but ``wirtinger`` adds a number to a
``rounding``.  The cone layer knows nothing of singularities: a form is its
coefficient, base points and domain, and a coefficient with a pole refuses
points near it itself, so ``potential_builder`` reads no pole guard.
"""

import ast
from pathlib import Path

import pytest

import holodet
from holodet import cli

SRC = Path(holodet.__file__).parent


def parameters_named(name: str, modules=("potential_builder", "verify", "wirtinger")):
    """Public functions (module.qualified.name) of the modules with a parameter ``name``."""
    sites = set()

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if (not isinstance(child, ast.ClassDef)
                        and not any(part.startswith("_") for part in inner)):
                    a = child.args
                    if name in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                        sites.add(".".join((module,) + inner))
                walk(child, module, inner)
            else:
                walk(child, module, scope)

    for module in modules:
        walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), module, ())
    return sites


def test_no_public_function_takes_nodes():
    assert parameters_named("nodes") == set()


def test_no_public_function_takes_a_step():
    assert parameters_named("h") == set()


def test_the_guard_sees_parameters():
    # the guard finds a parameter that every verifier has
    assert "potential_builder.cone_potentials" in parameters_named("form")
    assert "verify.boundary_check" in parameters_named("form")
    assert "wirtinger.contour" in parameters_named("f")


def test_potential_help_lists_no_nodes_option(capsys):
    with pytest.raises(SystemExit):
        cli.main(["potential", "--help"])
    help_text = capsys.readouterr().out
    assert "--form" in help_text and "--nodes" not in help_text


def rounding_sums(module: str) -> list[int]:
    """Lines of the module where a numeric constant is added to an expression reading ``.rounding``."""
    def numeric(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    def reads_rounding(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "rounding" for n in ast.walk(node))

    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(numeric(a) and reads_rounding(b)
                    for a, b in ((node.left, node.right), (node.right, node.left)))]


def test_the_contour_tolerance_is_stated_once():
    sites = {path.stem: rounding_sums(path.stem) for path in SRC.glob("*.py") if path.stem != "wirtinger"}
    assert {module: lines for module, lines in sites.items() if lines} == {}


def test_the_tolerance_guard_sees_the_rule():
    # the guard finds the one sum it allows, in Contour.tolerance
    assert len(rounding_sums("wirtinger")) == 1


def names_read(module: str) -> set[str]:
    """Every name and attribute the module's source refers to."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def class_fields(module: str, name: str) -> list[str]:
    """The annotated fields of a class of the module, in order."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (cls,) = (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name)
    return [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]


def test_the_cone_layer_reads_no_pole_guard():
    assert names_read("potential_builder") & {"POLE_GUARD", "pole_clearance"} == set()
    assert class_fields("potential_builder", "ClosedHoloForm") == [
        "dim", "coeff", "base_z", "base_w", "domain"]


def test_the_pole_guard_is_the_catalogs():
    # the guard finds the constant where it lives
    assert "POLE_GUARD" in names_read("catalog")
