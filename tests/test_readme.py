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


def test_readme_quotes_the_package_limits():
    assert "**4,096 faces** (`cones.MAX_FACES`)" in README
    assert ts.cones.MAX_FACES == 4096
    assert "  - the **4,096 faces** above" in README
    assert "**2^20 closed supports**" in README
    assert ts.luna.MAX_SUPPORTS == 2**20
    assert re.search(r"\*\*2\^20 = 1,048,576 points\*\*\s+\(`linalg.MAX_LATTICE_POINTS`\)", README)
    assert ts.linalg.MAX_LATTICE_POINTS == 2**20 == 1_048_576
