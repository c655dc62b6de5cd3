"""No bare ValueError leaves a numerical kernel: kernels raise a HolodetError.

Only the text parsers, whose errors the CLI catches and reports as bad input,
may raise ValueError.  The guard reads the source with ``ast``, so a new
``raise ValueError`` anywhere else fails here before any caller sees it.  A
second guard keeps the mapping of library errors to exit codes in ``cli.main``.
"""

import ast
from pathlib import Path

import holodet

SRC = Path(holodet.__file__).parent

#: (module, enclosing function) pairs allowed to raise ValueError
PARSERS = {
    ("catalog", "FormCatalogEntry.__post_init__"),
    ("catalog", "_complexes"),
    ("catalog", "parse_catalog"),
    ("catalog", "_entry_from_fields"),
    ("cli", "parse_point_pair"),
    ("cli", "_parse_recipe_file"),
    ("polarization", "load_diagonal_csv"),
}


def _raises_value_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def value_error_sites():
    sites = set()

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, scope + (child.name,))
            else:
                if isinstance(child, ast.Raise) and _raises_value_error(child):
                    sites.add((module, ".".join(scope)))
                walk(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_value_error_only_in_text_parsers():
    sites = value_error_sites()
    assert sites - PARSERS == set()
    assert PARSERS - sites == set()  # a parser that no longer raises leaves the list


def _with_subclasses(cls) -> set[str]:
    return {cls.__name__}.union(*map(_with_subclasses, cls.__subclasses__()))


#: what an ``except`` may name only in ``cli.main``: the library's error
#: types, and the bases that would catch them too
LIBRARY_ERRORS = {"Exception", "BaseException", *_with_subclasses(holodet.HolodetError)}


def library_error_handlers():
    """Scopes of ``cli.py`` holding a bare ``except`` or one naming a library error."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in caught}
                if child.type is None or names & LIBRARY_ERRORS:
                    sites.add(".".join(scope))
            walk(child, scope)

    walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")), ())
    return sites


def test_only_main_maps_library_errors_to_exit_codes():
    # a cmd_* function that catches DomainError or HolodetError restates the
    # exit-code rule; main applies it once to every subcommand
    assert library_error_handlers() == {"main"}
