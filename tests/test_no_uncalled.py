"""Every function, class and method of the package has a caller, and every
field of a package dataclass has a reader.

A definition counts as used when its name appears as a whole word in
src/, scripts/ or perfbench/ more often than it is defined there; a field
counts as read when ``.field`` appears there.  Tests do not count: code that
only a test reaches is dead in the program.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "braidhopf")
SEARCHED = ("src", "scripts", "perfbench")
# checked by the tests only; the braiding axioms are not part of any command
ALLOWED = {"verify_braiding_axioms"}


def python_sources(dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    with open(os.path.join(base, f), encoding="utf-8") as fh:
                        yield fh.read()


def package_definitions():
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for source in python_sources([os.path.relpath(PACKAGE, ROOT)]):
        for node in ast.parse(source).body:
            if isinstance(node, defs):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("__"):
                        yield item.name


def test_every_definition_is_referenced_beyond_its_definitions():
    text = "\n".join(python_sources(SEARCHED))
    uncalled = []
    for name in sorted(set(package_definitions()) - ALLOWED):
        uses = len(re.findall(rf"\b{re.escape(name)}\b", text))
        definitions = len(re.findall(rf"\b(?:def|class)\s+{re.escape(name)}\b", text))
        if uses <= definitions:
            uncalled.append(name)
    assert uncalled == []


def dataclass_fields():
    for source in python_sources([os.path.relpath(PACKAGE, ROOT)]):
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    text = "\n".join(python_sources(SEARCHED))
    unread = [f"{cls}.{field}" for cls, field in sorted(set(dataclass_fields()))
              if not re.search(rf"\.{re.escape(field)}\b", text)]
    assert unread == []
