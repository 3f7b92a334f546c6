"""Source hygiene: every name a module imports is used in that module,
every local name a function assigns is read, every parameter is read,
every private top-level function or class is referenced somewhere in the
package, every method a package class defines is read somewhere in the
repository, and no module takes another's private names outside a short
allowlist."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jpaut"

# __init__.py imports are the package's re-exports, not uses
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b\nb()\n") == [
        (1, "os"), (2, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(source: str) -> list:
    """(line, name) of each name a function assigns and never reads, nested
    functions' reads included; names starting with _ are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                               ast.Store):
                read.add(node.id)
        found += [(node.lineno, node.id) for node in _own_nodes(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)
                  and node.id not in read and not node.id.startswith("_")]
    return sorted(found)


def test_the_check_sees_an_unused_local():
    source = ("def f(x):\n    a, b = x\n    _c = 1\n    d = 2\n"
              "    def g():\n        e = d\n    return b\n")
    assert _unread_locals(source) == [(2, "a"), (6, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_name_is_read(path):
    assert _unread_locals(path.read_text(encoding="utf-8")) == []


def _is_stub(fn) -> bool:
    """Whether fn's body, docstring aside, is a single raise statement."""
    body = fn.body[1:] if ast.get_docstring(fn) else fn.body
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _unread_params(source: str) -> list:
    """(line, name) of each parameter of a function or lambda that its body
    never reads, nested scopes included; self, cls and names starting with
    _ are exempt, and so are abstract stubs, whose body only raises."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.Lambda)
                or isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_stub(fn)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        found += [(a.lineno, a.arg) for a in params
                  if a.arg not in read and a.arg not in ("self", "cls")
                  and not a.arg.startswith("_")]
    return sorted(found)


def test_the_check_sees_an_unread_parameter():
    source = ("def f(self, a, b, *args, _c=1, **kw):\n"
              "    g = lambda x, y: x\n"
              "    def h(z):\n        return b\n"
              "    return g, h\n"
              "def stub(x):\n    raise NotImplementedError\n")
    assert _unread_params(source) == [(1, "a"), (1, "args"), (1, "kw"),
                                      (2, "y"), (3, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_params(path.read_text(encoding="utf-8")) == []



_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dead_private_defs(sources: dict) -> list:
    """(module, name) of each private top-level function or class that no
    code outside its own definition references, in any of the modules."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, _DEFS) else None
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.append((module, owner))
            used.update(name for name in map(_referenced, ast.walk(top))
                        if name and name != owner)
    return sorted(d for d in defined if d[1] not in used)


def test_the_check_sees_a_dead_private_helper():
    sources = {"a": "def _dead(n):\n    return _dead(n - 1)\n"
                    "def _used():\n    pass\nclass _Base:\n    pass\n",
               "b": "from a import _used\nclass C(a._Base):\n"
                    "    x = _used()\n"}
    assert _dead_private_defs(sources) == [("a", "_dead")]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_defs(sources) == []


def _unread_methods(defining: dict, reading: list) -> list:
    """(module, class, name) of each method or property that a class in the
    defining sources defines and no source, defining or reading, reads as
    an attribute (x.name); dunder methods are exempt."""
    defined, read = [], set()
    for source in list(defining.values()) + reading:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    for module, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                defined += [(module, cls.name, node.name) for node in cls.body
                            if isinstance(node, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            and not (node.name.startswith("__")
                                     and node.name.endswith("__"))]
    return sorted(d for d in defined if d[2] not in read)


def test_the_check_sees_an_unread_method():
    defining = {"a": "class A:\n    def __len__(self):\n        return 0\n"
                     "    def used(self):\n        return self.inner()\n"
                     "    def inner(self):\n        pass\n"
                     "    @property\n    def size(self):\n        pass\n"
                     "    def dead(self):\n        self.gone = 1\n"}
    reading = ["from a import A\nA().used()\nx.size\n"]
    assert _unread_methods(defining, reading) == [("a", "A", "dead")]


def test_every_method_is_read():
    defining = {p.name: p.read_text(encoding="utf-8")
                for p in sorted(SRC.glob("*.py"))}
    reading = [p.read_text(encoding="utf-8")
               for folder in ("tests", "perfbench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread_methods(defining, reading) == []


# The private names one module may still take from another: the oracle's
# batched transport check and its int64 bound, and the catalog's nesting.
PRIVATE_IMPORTS = {("oracle", "jordan", "_carries"),
                   ("oracle", "jordan", "_fits_int64"),
                   ("catalog", "jordan", "_nest")}


def _private_imports(module: str, source: str) -> list:
    """(module, source module, name) of each private name the module takes
    from a sibling: `from .x import _y`, or `x._y` after `from . import x`.
    Dunder names are exempt."""
    tree = ast.parse(source)
    siblings, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append((module, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")):
            found.append((module, siblings[node.value.id], node.attr))
    return sorted(set(f for f in found if not f[2].startswith("__")))


def test_the_check_sees_a_private_import():
    source = ("from .a import _x, y\nfrom . import b as c\n"
              "def f():\n    from .d import _z\n    return c._w, c.v, c.__doc__\n")
    assert _private_imports("m", source) == [
        ("m", "a", "_x"), ("m", "b", "_w"), ("m", "d", "_z")]


def test_no_module_takes_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _private_imports(path.stem,
                                  path.read_text(encoding="utf-8"))
    assert sorted(set(found) - PRIVATE_IMPORTS) == []
