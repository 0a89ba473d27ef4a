"""No module of src/polyfred reads another module's private names.

A name with a leading underscore belongs to its module: a fact that another
module needs is kept under a public name.  The guard parses the sources
with ``ast`` and flags ``from .mod import _name`` and ``mod._name``, where
``mod`` is a module of the package bound by ``from . import mod``,
``from polyfred import mod`` or ``import polyfred.mod as mod``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfred"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str):
    """(module, name) for every private name of another package module
    that the source reads."""
    tree = ast.parse(source)
    modules = {}                     # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] \
                == "polyfred"
            if not inside:
                continue
            module = (node.module or "").removeprefix("polyfred").lstrip(".")
            for alias in node.names:
                if module:
                    if _private(alias.name):
                        yield module, alias.name
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("polyfred.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield modules[node.value.id], node.attr


def test_guard_flags_private_reads():
    source = (
        "import numpy as np\n"
        "import polyfred.mellin as m\n"
        "from . import geometry, layerpot as lp\n"
        "from .groupoid import limit_operator, _cover\n"
        "from polyfred import cli\n"
        "x = geometry._extent_exponent(lp.MAX, np._core, m._det)\n"
        "y = cli._emit, geometry.__name__, self._own\n")
    assert sorted(private_reads(source)) == [
        ("cli", "_emit"), ("geometry", "_extent_exponent"),
        ("groupoid", "_cover"), ("mellin", "_det")]


def test_no_module_reads_another_modules_private_names():
    found = {(path.name, module, name) for path in sorted(SRC.glob("*.py"))
             for module, name in private_reads(path.read_text())}
    assert found == set()
