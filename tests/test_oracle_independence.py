"""``tests/oracles.py`` must share no code with the package it checks."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level) + (node.module or "")


def test_oracles_do_not_import_ctda():
    modules = list(imported_modules(ast.parse(ORACLES.read_text(encoding="utf-8"))))
    assert modules, "expected oracles.py to import at least numpy"
    offending = [m for m in modules if m.split(".")[0] in ("ctda", "")]
    assert not offending, f"oracles.py imports {offending}"


def test_detects_a_ctda_import():
    tree = ast.parse("import numpy\nfrom ctda.stats import Channel\nimport ctda\n")
    assert [m for m in imported_modules(tree) if m.split(".")[0] == "ctda"] == [
        "ctda.stats",
        "ctda",
    ]
