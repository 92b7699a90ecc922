"""Every function, class and method of the package has a caller, every
field of a package dataclass has a reader, every parameter of a package
function is read in its body, every local name a package function stores
is read in it, every parameter default is overridden by some call and used
by another, and every name a package module imports is read in it.

A definition counts as used when its name occurs in the code of src/,
scripts/ or perfbench/ more often than it is defined there; a field counts as
read when ``.field`` occurs there.  Only code counts, read from the syntax
tree: a name in a string or a comment calls nothing, while the fields of an
f-string are code.  Tests do not count either: code that only a test reaches
is dead in the program.
"""

import ast
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "braidhopf")
SEARCHED = ("src", "scripts", "perfbench")


def python_sources(dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    with open(os.path.join(base, f), encoding="utf-8") as fh:
                        yield fh.read()


DEFS = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef


def code_names(dirs):
    """Each name the code of dirs mentions, as (node type, name): a variable,
    an attribute (the x of ``.x``), an imported name, or a def or class."""
    for source in python_sources(dirs):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                yield ast.Name, node.id
            elif isinstance(node, ast.Attribute):
                yield ast.Attribute, node.attr
            elif isinstance(node, (ast.alias, *DEFS)):
                yield type(node), node.name


def package_definitions():
    for source in python_sources([os.path.relpath(PACKAGE, ROOT)]):
        for node in ast.parse(source).body:
            if isinstance(node, DEFS):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("__"):
                        yield item.name


def test_every_definition_is_referenced_beyond_its_definitions():
    mentions = list(code_names(SEARCHED))
    uses = Counter(name for _, name in mentions)
    definitions = Counter(name for kind, name in mentions if kind in DEFS)
    uncalled = [name for name in sorted(set(package_definitions()))
                if uses[name] <= definitions[name]]
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
    reads = {name for kind, name in code_names(SEARCHED) if kind is ast.Attribute}
    unread = [f"{cls}.{field}" for cls, field in sorted(set(dataclass_fields()))
              if field not in reads]
    assert unread == []


def parameters_never_read():
    """(function, parameter) for each parameter a function's body never reads.

    Methods and lambdas are exempt: a method's signature is fixed by its base
    class, as in ``Backend.object_verdicts(self, x)``, and a lambda's by the code
    that calls it, such as one side of an affine condition.
    """
    for source in python_sources([os.path.relpath(PACKAGE, ROOT)]):
        tree = ast.parse(source)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(node) in methods:
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((node.name, p) for p in params if p not in read)


def test_every_function_parameter_is_read():
    assert list(parameters_never_read()) == []


def locals_never_read():
    """``module.function: name`` for each name a package function stores and
    never loads; ``_`` is exempt.  The function's nested functions, lambdas and
    comprehensions count as part of it."""
    for f in sorted(os.listdir(PACKAGE)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, f), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
            loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            yield from (f"{f[:-3]}.{node.name}: {name}"
                        for name in sorted(stored - loaded - {"_"}))


def test_every_local_is_read():
    assert list(locals_never_read()) == []


def defaulted_parameters():
    """(function, parameter, position) for each parameter of a package
    function that has a default; position is None for a keyword-only one.

    A method's first parameter (self or cls) is bound by the call, so
    positions count from the parameter after it.
    """
    for source in python_sources([os.path.relpath(PACKAGE, ROOT)]):
        tree = ast.parse(source)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)
                   and "staticmethod" not in map(ast.unparse, item.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args][1 if id(node) in methods else 0:]
            first = len(positional) - len(a.defaults)
            for k, p in enumerate(positional[first:], start=first):
                yield node.name, p.arg, k
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.name, p.arg, None


def passes(call, parameter, position):
    """True when the call passes the parameter, by position or by keyword;
    a ``*`` or ``**`` argument may pass any parameter."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def default_uses():
    """(function.parameter, [whether each call of the function passes it]) for
    each defaulted parameter; a call is of the function when the name it
    calls, bare or as an attribute, is the function's."""
    calls = [node for source in python_sources(SEARCHED)
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]

    def called_name(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    for fn, p, position in defaulted_parameters():
        yield f"{fn}.{p}", [passes(c, p, position) for c in calls if called_name(c) == fn]


def test_every_defaulted_parameter_is_passed():
    assert [name for name, passed in default_uses() if not any(passed)] == []


def test_every_defaulted_parameter_is_omitted_by_some_call():
    """A default that every call overrides is never used; the parameter
    should be required."""
    assert [name for name, passed in default_uses() if all(passed)] == []


def imports_never_read():
    """(module, name) for each name a package module other than ``__init__``
    imports and never reads; ``__init__`` imports to re-export."""
    for f in sorted(os.listdir(PACKAGE)):
        if not f.endswith(".py") or f == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, f), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        yield from ((f, name) for name in imported if name not in read)


def test_every_imported_name_is_read():
    assert list(imports_never_read()) == []
