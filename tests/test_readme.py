"""The README's examples and quoted limits match the package."""

import ast
import re
from pathlib import Path

import toricstrata as ts
from toricstrata.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(opening: str) -> str:
    """The body of the fenced code block whose first line starts with
    ``opening``."""
    start = README.index(opening)
    return README[start : README.index("```", start)]


def test_readme_stratify_example_is_the_cli_text_output(capsys, fixture_path):
    block = fenced_block("$ python3 -m toricstrata.cli stratify tests/fixtures/cone_a1.json")
    expected = block.split("\n", 1)[1]
    assert main(["stratify", fixture_path("cone_a1.json")]) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_snippet_values_hold():
    block = fenced_block("import toricstrata as ts")
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.split(" — ")[0].strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == value, line
        checked += 1
    assert checked == 5


def test_readme_quotes_the_package_limits(capsys, fixture_path):
    assert "`toricstrata.errors.MAX_WORK` = **2^21 = 2,097,152 steps**" in README
    assert ts.errors.MAX_WORK == 2**21 == 2_097_152
    for gone in ("MAX_FACES", "MAX_SUPPORTS", "MAX_LATTICE_POINTS"):
        assert gone not in README
    # the quoted refusal is the CLI's, path and count included
    block = fenced_block("error: tests/fixtures/cyclic_9x18.json")
    path = fixture_path("cyclic_9x18.json")
    assert main(["stratify", path]) == 1
    assert capsys.readouterr().err.replace(path, "tests/fixtures/cyclic_9x18.json") == block
