"""Each file format is decided in one module: within ``src/ctda`` only
``dataio`` imports ``csv`` and only ``stats`` imports ``json``.  Likewise
only ``equalizer`` decides what a ``predict`` model's window is offset by.
Text is accepted by one numpy rule, with no per-cell Python converter, and
ISO dates by one rule on each path: only ``dataio._parse_plain`` uses
``np.loadtxt``, only ``dataio._iso_ordinal`` (the row reader's rule) uses
``fromisoformat`` and only ``dataio._iso_ordinals`` (numpy's) names
``datetime64``.  Pixels are sampled by one rule: only
``dataio._count_levels`` calls a generator's ``random``.  The trailing
window of online fusion has one implementation: only
``fusion._online_rows`` uses ``sliding_window_view``.  Images are scored
through one public array API: ``cli`` imports no private name from
``scoring``.  A corpus is widened to intp by one rule: only
``stats._blocks`` passes ``casting=``; it is counted by one kernel: only
``stats._counts`` calls ``np.add.at`` or ``np.bincount``; and every pass
over it is blocked by one budget: only ``stats`` sets a ``_BLOCK*``
constant.  No module imports a name it neither uses nor exports."""

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


def compares_to(tree, value) -> bool:
    """Whether any comparison in ``tree`` has the constant ``value`` as an operand."""
    return any(
        isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Constant) and side.value == value
            for side in (node.left, *node.comparators)
        )
        for node in ast.walk(tree)
    )


def test_one_module_compares_a_mode_to_predict():
    comparers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if compares_to(ast.parse(path.read_text(encoding="utf-8")), "predict")
    ]
    assert comparers == ["equalizer.py"]


def test_detects_a_predict_comparison():
    assert compares_to(ast.parse('off = 1 if m.mode == "predict" else 0'), "predict")
    assert compares_to(ast.parse('ok = "predict" != mode'), "predict")
    assert not compares_to(ast.parse('modes = ("infer", "predict")'), "predict")


def users(tree, name: str) -> set:
    """Innermost functions of ``tree`` that use ``name``, as ``x.name``, bare
    or at the start of a string (as in a dtype string); ``"<module>"`` for a
    use outside every function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.add(scope)
        elif isinstance(node, ast.Name) and node.id == name:
            found.add(scope)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith(name)):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("name, owner", [
    ("loadtxt", ("dataio.py", "_parse_plain")),
    ("fromisoformat", ("dataio.py", "_iso_ordinal")),
    ("datetime64", ("dataio.py", "_iso_ordinals")),
])
def test_one_function_uses_each_accept_rule(name, owner):
    uses = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in users(ast.parse(path.read_text(encoding="utf-8")), name)
    )
    assert uses == [owner]


def test_one_function_takes_a_trailing_window():
    # both public entry points of the online refresh call this one function;
    # online_alpha_update reads the last row
    uses = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in users(ast.parse(path.read_text(encoding="utf-8")), "sliding_window_view")
    )
    assert uses == [("fusion.py", "_online_rows")]


def test_detects_a_use_by_reference_or_call():
    tree = ast.parse(
        "def parse(cells):\n"
        "    def one(c):\n"
        "        return date.fromisoformat(c)\n"
        "    return map(date.fromisoformat, cells)\n"
        "def days(cells):\n"
        "    return cells.astype('datetime64[D]')\n"
        "def dates(cells):\n"
        "    '''Dates, read without datetime64.'''\n"
        "rows = loadtxt(fh)\n"
    )
    assert users(tree, "fromisoformat") == {"parse", "one"}
    assert users(tree, "loadtxt") == {"<module>"}
    assert users(tree, "datetime64") == {"days"}


def converter_calls(tree) -> int:
    """How many calls in ``tree`` pass a ``converters=`` keyword."""
    return sum(
        isinstance(node, ast.Call) and any(k.arg == "converters" for k in node.keywords)
        for node in ast.walk(tree)
    )


def test_no_call_passes_a_converter():
    # Text is accepted by numpy's own rules: no call passes a per-cell converter.
    assert [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if converter_calls(ast.parse(path.read_text(encoding="utf-8")))
    ] == []


def test_detects_a_converter():
    tree = ast.parse(
        "rows = np.loadtxt(fh, converters={0: parse})\n"
        "rows = _parse_plain(fh, 0, dtype=float, converters=None)\n"
        "rows = np.loadtxt(fh, delimiter=',')\n"
    )
    assert converter_calls(tree) == 2


def keyword_passers(tree, keyword: str) -> set:
    """Innermost functions of ``tree`` with a call that passes ``keyword=``;
    ``"<module>"`` for a call outside every function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call) and any(k.arg == keyword for k in node.keywords):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_one_function_widens_a_corpus():
    # every count and gather of a corpus casts its blocks through stats._blocks
    passers = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in keyword_passers(ast.parse(path.read_text(encoding="utf-8")), "casting")
    )
    assert passers == [("stats.py", "_blocks")]


def test_detects_a_casting_keyword():
    tree = ast.parse(
        "def widen(rows, out):\n"
        "    def inner():\n"
        "        return np.add(rows, 0, out=out, casting='unsafe')\n"
        "    return rows.astype(int, casting='safe')\n"
        "def plain(rows):\n"
        "    return np.add(rows, 1, dtype='casting')\n"
        "np.copyto(a, b, casting='no')\n"
    )
    assert keyword_passers(tree, "casting") == {"inner", "widen", "<module>"}


def callers(tree, method: str) -> set:
    """Innermost functions of ``tree`` that call ``x.method(...)``;
    ``"<module>"`` for a call outside every function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == method):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_one_function_draws_uniforms():
    calls = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in callers(ast.parse(path.read_text(encoding="utf-8")), "random")
    )
    assert calls == [("dataio.py", "_count_levels")]


def test_detects_a_random_call_but_not_the_module():
    tree = ast.parse(
        "def draw(rng, shape):\n"
        "    return rng.random(shape)\n"
        "def seeded(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "u = np.random.default_rng(0).random(3)\n"
    )
    assert callers(tree, "random") == {"draw", "<module>"}


def test_one_function_counts_a_corpus():
    # every corpus count adds its blocks into bins through stats._counts
    calls = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for method in ("at", "bincount")
        for function in callers(ast.parse(path.read_text(encoding="utf-8")), method)
    )
    assert calls == [("stats.py", "_counts")]


def test_detects_a_count_call():
    tree = ast.parse(
        "def tally(bins, rows):\n"
        "    np.add.at(bins, rows, 1)\n"
        "def histogram(rows):\n"
        "    return np.bincount(rows)\n"
        "def other(rows):\n"
        "    return np.add(rows, 1)\n"
    )
    assert callers(tree, "at") | callers(tree, "bincount") == {"tally", "histogram"}


def block_constants(tree) -> set:
    """Names starting with ``_BLOCK`` that ``tree`` assigns anywhere."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("_BLOCK")
    }


def test_one_module_sets_the_block_budget():
    # drawing, counting and gathering all take their run length from stats
    defined = sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in block_constants(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert defined == [("stats.py", "_BLOCK_SYMBOLS")]


def test_detects_a_block_constant():
    tree = ast.parse(
        "_BLOCK_ROWS = 32\n"
        "_BLOCKS: int = 2\n"
        "def draw():\n"
        "    _BLOCK_LOCAL = 4\n"
        "    block = _BLOCK_ROWS\n"
        "_STEP = 1\n"
    )
    assert block_constants(tree) == {"_BLOCK_ROWS", "_BLOCKS", "_BLOCK_LOCAL"}


def imported_from(tree, module: str) -> list:
    """Names that ``tree``'s ``from <module> import ...`` statements bring in."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and ("." * node.level + (node.module or "")) == module
        for alias in node.names
    ]


def test_cli_imports_no_private_scoring_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = imported_from(tree, ".scoring")
    assert "score_dataset" in names
    assert [name for name in names if name.startswith("_")] == []


def test_detects_a_relative_import():
    tree = ast.parse("from .scoring import _pooled, score\nfrom scoring import other\n")
    assert imported_from(tree, ".scoring") == ["_pooled", "score"]


def unused_imports(tree) -> list:
    """Names bound by ``tree``'s top-level imports (``__future__`` aside) that
    the module neither uses nor lists in ``__all__``."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in ast.walk(node.value)
        if isinstance(element, ast.Constant)
    }
    return [name for name in bound if name not in used | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detects_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import used, kept, dead\n"
        "__all__ = ['kept']\n"
        "def f():\n"
        "    import json\n"
        "    return used(np.zeros(1))\n"
    )
    assert unused_imports(tree) == ["os", "dead"]
