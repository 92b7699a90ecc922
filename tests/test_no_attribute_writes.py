"""No package object changes an attribute after it is built.

The records of the package are plain dataclasses, not frozen ones: freezing
gives each record class generated ``__setattr__``, ``__delattr__`` and
``__hash__`` functions to compile at import, and makes an instance several
times slower to build.  This test keeps what freezing promised, read from
the syntax tree of src/braidhopf: no attribute is stored to or deleted
outside an ``__init__``, and nothing calls ``setattr`` or ``delattr``, nor
``__setattr__`` or ``__delattr__`` as in ``object.__setattr__``.  A
dataclass record has no ``__init__`` in the source, so none of its fields
is assigned after the generated one.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "braidhopf")
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def attribute_writes():
    """``file:line: code`` of each attribute store or delete outside an
    ``__init__``, and of each call of a setter anywhere."""
    for f in sorted(os.listdir(PACKAGE)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, f), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        in_init = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                   for n in ast.walk(node)}
        for node in ast.walk(tree):
            stored = (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                      and id(node) not in in_init)
            func = node.func if isinstance(node, ast.Call) else None
            called = (isinstance(func, ast.Name) and func.id in SETTERS
                      or isinstance(func, ast.Attribute) and func.attr in SETTERS)
            if stored or called:
                yield f"{f}:{node.lineno}: {ast.unparse(node)}"


def test_no_attribute_is_written_outside_an_init():
    assert list(attribute_writes()) == []
