"""Every parameter of a function in src/polyfred is read by its body.

A parameter that nothing reads is generality that no caller gets; the guard
parses the sources with ``ast`` and covers module-level functions and the
functions nested in them, and methods, whose first parameter (``self`` or
``cls``) is skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfred"

# acceptance criterion 7 calls assemble_np(d, mesh), so its d stays
ALLOWED = {("layerpot.py", "assemble_np", "d")}


def unread_parameters(source: str):
    """(function, parameter) for every parameter of a function that its
    body never reads, a method's first parameter aside."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if isinstance(parents[fn], ast.ClassDef):
            params = params[1:]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        yield from ((fn.name, p) for p in params if p not in read)


def test_guard_flags_unread_parameters():
    source = (
        "def f(x, y, *args, z=1, **kw):\n"
        "    def inner(u, v):\n"
        "        return u + y\n"
        "    return x\n"
        "class C:\n"
        "    def method(self, unused):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def make(cls, read):\n"
        "        return read\n")
    assert sorted(unread_parameters(source)) == [
        ("f", "args"), ("f", "kw"), ("f", "z"), ("inner", "v"),
        ("method", "unused")]


def test_every_parameter_is_read():
    found = {(path.name, fn, p) for path in sorted(SRC.glob("*.py"))
             for fn, p in unread_parameters(path.read_text())}
    # the allowlist holds only parameters that are really unread
    assert found == ALLOWED
