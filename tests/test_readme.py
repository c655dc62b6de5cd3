"""README's example commands print the values their comments give."""

import pathlib
import re
import shlex

import pytest

from holodet import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: (argv, value) of every README line ``holodet <args>  # <number>``
EXAMPLES = [(shlex.split(args), value) for args, value in re.findall(
    r"^holodet (.+?)\s+# (-?\d[\d.eE+-]*)\s*$", README.read_text(encoding="utf-8"), re.M)]


def test_the_readme_gives_valued_examples():
    assert {"eta", "extend"} <= {argv[0] for argv, _ in EXAMPLES}


@pytest.mark.parametrize("argv, value", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_a_readme_example_prints_its_value(argv, value, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == value + "\n"
