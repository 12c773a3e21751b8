"""Each file format is decided in one module: within ``src/ctda`` only
``dataio`` imports ``csv`` and only ``stats`` imports ``json``."""

import ast
from pathlib import Path

import pytest

from test_oracle_independence import imported_modules

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctda"


def importers(module: str) -> list:
    return sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if module in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )


@pytest.mark.parametrize("module, owner", [("csv", "dataio.py"), ("json", "stats.py")])
def test_one_module_imports_each_format(module, owner):
    assert importers(module) == [owner]


def test_detects_a_format_import():
    tree = ast.parse("import numpy\nfrom json import dumps\nimport csv as c\n")
    assert list(imported_modules(tree)) == ["numpy", "json", "csv"]
