"""One input-error type, and one place that turns errors into exit codes.

Every malformed input, a point outside its domain or a malformed line of a
catalog, recipe or samples CSV, is a DomainError; no module raises ValueError.
``cli.main`` alone maps a library error to its exit code, and apart from it
only the argparse type ``parse_complex`` catches anything.  In the whole
package a library error is caught in three places only: ``cli.main``,
``verify.run_all`` (a crashed group is a failed check) and
``catalog.parse_catalog`` (which re-raises it with the line number).  The
guards read the source with ``ast``,
so a new ``raise ValueError`` or a new ``except`` in a subcommand or a check
fails here before any caller sees it.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import holodet
from holodet.errors import DomainError
from holodet.extension import ProductPoint
from holodet.polarization import DiagonalSampleSet, disc_samples, polarize_fit
from holodet.special_functions import log_eta, reduce
from holodet.torus_spectral import closed_form_log_det, zeta_log_det

SRC = Path(holodet.__file__).parent

#: the scopes of ``cli.py`` that may hold an ``except``: main, and the
#: argparse type, which turns a malformed option value into argparse's error
CLI_HANDLERS = {"main", "parse_complex"}


def _raises_value_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def _scopes(tree, keep):
    """Dotted names of the function and class scopes holding a node that ``keep`` accepts."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if keep(child):
                sites.add(".".join(scope))
            walk(child, scope)

    walk(tree, ())
    return sites


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_value_error_is_raised():
    sites = {(path.stem, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _scopes(_parse(path), _raises_value_error)}
    assert sites == set()


def _with_subclasses(cls) -> set[str]:
    return {cls.__name__}.union(*map(_with_subclasses, cls.__subclasses__()))


#: what an ``except`` may name only in LIBRARY_HANDLERS: the library's error
#: types, and the bases that would catch them too
LIBRARY_ERRORS = {"Exception", "BaseException", *_with_subclasses(holodet.HolodetError)}

#: (module, scope) of every ``except`` that may catch a library error
LIBRARY_HANDLERS = {("cli", "main"), ("verify", "run_all"), ("catalog", "parse_catalog")}


def _catches_library_error(node) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in caught}
    return node.type is None or bool(names & LIBRARY_ERRORS)


def test_library_errors_are_caught_only_in_main_run_all_and_parse_catalog():
    # a cmd_* function or a check that catches DomainError or HolodetError
    # restates the outcome rule: main maps each error to its exit code once
    # for every subcommand, and run_all turns a crashed group into a failed check
    sites = {(path.stem, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _scopes(_parse(path), _catches_library_error)}
    assert sites == LIBRARY_HANDLERS


def test_only_main_and_the_argparse_types_catch():
    # an input error propagates to main as a DomainError or OSError, so no
    # subcommand or helper catches anything to turn it into an exit code
    handlers = _scopes(_parse(SRC / "cli.py"), lambda n: isinstance(n, ast.ExceptHandler))
    assert handlers <= CLI_HANDLERS and "main" in handlers


_FIT = polarize_fit(DiagonalSampleSet.from_function(lambda z: z * np.conj(z), 0.3, 0.5, 98), 6)

#: the point checks, each a function of the one value it is given
POINT_CHECKS = {
    "log_eta": log_eta, "reduce": reduce, "zeta_log_det": zeta_log_det,
    "closed_form_log_det": closed_form_log_det,
    "ProductPoint.z": lambda z: ProductPoint(z, -1j),
    "ProductPoint.w": lambda w: ProductPoint(1j, w),
    "ProductPoint.diagonal": ProductPoint.diagonal,
    "disc_samples.center": lambda c: disc_samples(c, 0.1, 10),
    "from_function.center": lambda c: DiagonalSampleSet.from_function(abs, c, 0.1, 10),
    "DiagonalSampleSet.points": lambda p: DiagonalSampleSet(p, np.ones(1), 0.3, 0.5),
    "evaluate.z": lambda z: _FIT.evaluate(z, 0.3),
    "evaluate.w": lambda w: _FIT.evaluate(0.3, w),
}


@pytest.mark.parametrize("check, value, named", [
    ("log_eta", "a", "'a'"),
    ("reduce", "x", "'x'"),
    ("zeta_log_det", "a", "'a'"),
    ("log_eta", np.array(["a"]), "array(['a']"),
    ("log_eta", np.array(["1+2j"]), "array(['1+2j']"),
    ("log_eta", "1+2j", "'1+2j'"),
    ("log_eta", None, "None"),
    ("closed_form_log_det", None, "None"),
    ("zeta_log_det", None, "None"),
    ("log_eta", [1j, 2j], "[1j, 2j]"),
    ("ProductPoint.z", "a", "'a'"),
    ("ProductPoint.z", None, "None"),
    ("ProductPoint.w", [0.5], "[0.5]"),
    ("ProductPoint.diagonal", "a", "'a'"),
    ("disc_samples.center", "a", "'a'"),
    ("disc_samples.center", None, "None"),
    ("from_function.center", "a", "'a'"),
    ("from_function.center", None, "None"),
    ("DiagonalSampleSet.points", None, "None"),
    ("DiagonalSampleSet.points", ["0.3"], "['0.3']"),
    ("evaluate.z", "1+2j", "'1+2j'"),
    ("evaluate.z", None, "None"),
    ("evaluate.w", [0.3], "[0.3]"),
])
def test_a_point_that_is_not_a_number_is_a_domain_error_naming_it(check, value, named):
    """Points are complex numbers or ndarrays of them, as the docstrings say; nothing else is."""
    # ValueError (a malformed string), TypeError (None, a list), or None read as NaN before
    with pytest.raises(DomainError, match="got .*" + re.escape(named)):
        POINT_CHECKS[check](value)
