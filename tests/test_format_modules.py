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
``fusion.online_inverse_mse_weights`` uses ``sliding_window_view``."""

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
    # online_alpha_update reads the last row of the vectorized refresh
    uses = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in users(ast.parse(path.read_text(encoding="utf-8")), "sliding_window_view")
    )
    assert uses == [("fusion.py", "online_inverse_mse_weights")]


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
