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
from pathlib import Path

import holodet

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
