"""Source hygiene: no module of the package imports a name at module level
that it never uses, no private function or method goes unreferenced, no
public definition is left to the tests alone, no function mutates
module-level state, and nothing calls sympy's heuristic
`simplify` or `together`.  No linter is part of the toolchain, so this
parses the modules with `ast` instead."""

import ast
import os

import pytest

from loopbrackets import cli

PKG = os.path.dirname(os.path.abspath(cli.__file__))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read anywhere in the
    module.  `from __future__` imports and names listed in `__all__` do
    not count as unused."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound[name] = a.asname or a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = a.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_detected():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from dataclasses import dataclass, field as dc_field\n"
              "\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = os.path.sep\n")
    assert unused_imports(source) == ["dc_field", "json"]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """`module:name` for every private function or method (one leading
    underscore, not a dunder) whose name no Name or attribute in
    `sources` reads outside its own def.  References are matched by name
    alone, so a name defined twice counts as referenced if either is."""
    trees = {m: ast.parse(src) for m, src in sources.items()}

    def refs(tree):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute))]

    total: dict[str, int] = {}
    for tree in trees.values():
        for name in refs(tree):
            total[name] = total.get(name, 0) + 1
    out = []
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")
                    and total.get(node.name, 0)
                    <= refs(node).count(node.name)):
                out.append(f"{m}:{node.name}")
    return sorted(out)


def test_private_definitions_referenced():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PKG, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreferenced_private_definitions(sources) == []


def test_unreferenced_private_definition_detected():
    source = ("def _used():\n"
              "    return 1\n"
              "def _unused():\n"
              "    return _used()\n"
              "def _recursive(k):\n"
              "    return _recursive(k - 1)\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        self._m()\n"
              "    def _m(self):\n"
              "        pass\n"
              "    def _dead(self):\n"
              "        pass\n")
    assert unreferenced_private_definitions({"m.py": source}) == [
        "m.py:_dead", "m.py:_recursive", "m.py:_unused"]


def read_names(tree) -> list[str]:
    """Every name the tree reads: Names, attributes and string constants
    (the benchmark's tracer wraps functions named in strings)."""
    return [n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.value
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            or (isinstance(n, ast.Constant) and isinstance(n.value, str))]


def unreferenced(package: dict[str, str], others: dict[str, str],
                 definitions) -> list[str]:
    """`module:label` for every (label, node) that `definitions` yields
    from a `package` module's tree whose name nothing in `package` or
    `others` reads outside the node itself."""
    trees = {m: ast.parse(src) for m, src in {**package, **others}.items()}
    total: dict[str, int] = {}
    for tree in trees.values():
        for name in read_names(tree):
            total[name] = total.get(name, 0) + 1
    return sorted(f"{m}:{label}" for m in package
                  for label, node in definitions(trees[m])
                  if total.get(node.name, 0)
                  <= read_names(node).count(node.name))


def unreferenced_public_definitions(package: dict[str, str],
                                    others: dict[str, str]) -> list[str]:
    """`module:name` for every public module-level function or class of
    the `package` sources that nothing in `package` or `others` reads
    outside its own definition."""
    return unreferenced(package, others, lambda tree: (
        (node.name, node) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")))


def unreferenced_public_methods(package: dict[str, str],
                                others: dict[str, str]) -> list[str]:
    """`module:Class.name` for every public method or property of a
    module-level class of the `package` sources, private classes
    included, whose name nothing in `package` or `others` reads outside
    its own definition.  Methods are matched by name alone."""
    return unreferenced(package, others, lambda tree: (
        (f"{cls.name}.{node.name}", node) for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")))


def package_and_others() -> tuple[dict[str, str], dict[str, str]]:
    """The package sources, and those of its scripts and the benchmark
    harness, by path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package, others = {}, {}
    for module in MODULES:
        with open(os.path.join(PKG, module), encoding="utf-8") as fh:
            package[module] = fh.read()
    for top in ("scripts", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for f in files:
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        others[os.path.relpath(path, root)] = fh.read()
    assert others
    return package, others


def test_public_definitions_have_callers():
    """Every public definition of the package is used by the package,
    its scripts or the benchmark harness, not by its tests alone."""
    assert unreferenced_public_definitions(*package_and_others()) == []


def test_unreferenced_public_definition_detected():
    package = {"a.py": ("def used():\n"
                        "    return 1\n"
                        "def unused():\n"
                        "    return used()\n"
                        "def recursive(k):\n"
                        "    return recursive(k - 1)\n"
                        "def by_name():\n"
                        "    pass\n"
                        "class Dead:\n"
                        "    def method(self):\n"
                        "        pass\n"
                        "def _private():\n"
                        "    pass\n")}
    others = {"bench/run.py": "LAYERS = ('by_name',)\n"}
    assert unreferenced_public_definitions(package, others) == [
        "a.py:Dead", "a.py:recursive", "a.py:unused"]


def test_public_methods_have_callers():
    """Every public method of a package class is used by the package, its
    scripts or the benchmark harness, not by its tests alone."""
    assert unreferenced_public_methods(*package_and_others()) == []


def test_unreferenced_public_method_detected():
    package = {"a.py": ("class _Algebra:\n"
                        "    def used(self):\n"
                        "        return self.by_name\n"
                        "    def unused(self):\n"
                        "        return self.used()\n"
                        "    def recursive(self, k):\n"
                        "        return self.recursive(k - 1)\n"
                        "    def by_name(self):\n"
                        "        pass\n"
                        "    def _private(self):\n"
                        "        pass\n"
                        "    def __eq__(self, other):\n"
                        "        pass\n"
                        "def outside():\n"
                        "    return _Algebra().traced()\n"
                        "class Table:\n"
                        "    def traced(self):\n"
                        "        pass\n"
                        "    def order(self):\n"
                        "        pass\n")}
    others = {"bench/run.py": "LAYERS = ('order',)\n"}
    assert unreferenced_public_methods(package, others) == [
        "a.py:_Algebra.recursive", "a.py:_Algebra.unused"]


MUTATORS = {"add", "update", "setdefault", "append", "extend", "pop", "clear",
            "remove", "discard"}


def module_state_mutations(source: str) -> list[str]:
    """`function:name` for every function (or lambda) that mutates a
    module-level name: a subscript store or delete on it, a call of one of
    MUTATORS on it (or on an attribute or item of it, so another module's
    state counts too), or a `global` statement.  Parameters and names the
    function assigns are its own and do not count."""
    tree = ast.parse(source)
    shared = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            shared.update(n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            shared.update((a.asname or a.name).split(".")[0]
                          for a in node.names)

    def root(e):
        while isinstance(e, (ast.Attribute, ast.Subscript)):
            e = e.value
        return e.id if isinstance(e, ast.Name) else None

    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        own = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
               + [a.vararg, a.kwarg] if x}
        own |= {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        name = getattr(fn, "name", "<lambda>")
        for n in ast.walk(fn):
            if isinstance(n, ast.Global):
                out.update(f"{name}:{g}" for g in n.names)
                continue
            if (isinstance(n, ast.Subscript)
                    and isinstance(n.ctx, (ast.Store, ast.Del))):
                target = root(n)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in MUTATORS):
                target = root(n.func.value)
            else:
                continue
            if target in shared - own:
                out.add(f"{name}:{target}")
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_state_mutation(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert module_state_mutations(fh.read()) == []


def test_module_state_mutation_detected():
    source = ("import os\n"
              "_SEEN: dict = {}\n"
              "_NAMES = set()\n"
              "_COUNT = 0\n"
              "TABLE = {'a': []}\n"
              "def record(name):\n"
              "    _SEEN[name] = True\n"
              "def declare(*names):\n"
              "    _NAMES.update(names)\n"
              "def bump():\n"
              "    global _COUNT\n"
              "    _COUNT += 1\n"
              "def nested(x):\n"
              "    TABLE['a'].append(x)\n"
              "def environ(k):\n"
              "    os.environ.pop(k)\n"
              "drop = lambda k: _SEEN.pop(k)\n"
              "def shadowed(_SEEN):\n"
              "    _SEEN['x'] = 1\n"
              "def local():\n"
              "    _NAMES = set()\n"
              "    _NAMES.add(1)\n"
              "def read():\n"
              "    return _SEEN.get('x'), TABLE['a']\n")
    assert module_state_mutations(source) == [
        "<lambda>:_SEEN", "bump:_COUNT", "declare:_NAMES", "environ:os",
        "nested:TABLE", "record:_SEEN"]


HEURISTICS = {"simplify", "together"}


def heuristic_calls(source: str) -> list[str]:
    """`line:name` for every call of a function or method named in
    HEURISTICS, however it is reached (`sp.simplify(e)`, `simplify(e)`,
    `e.simplify()`).  Exact questions get exact answers: `cancel`,
    `expand` or ring arithmetic."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in HEURISTICS:
                out.append(f"{n.lineno}:{name}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_heuristic_simplification(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert heuristic_calls(fh.read()) == []


def test_heuristic_simplification_detected():
    source = ("import sympy as sp\n"
              "from sympy import together\n"
              "def f(e):\n"
              "    a = sp.simplify(e)\n"
              "    b = together(e)\n"
              "    c = e.simplify()\n"
              "    return sp.cancel(a + b + c), sp.simplify\n")
    assert heuristic_calls(source) == ["4:simplify", "5:together",
                                       "6:simplify"]


def coefficient_leaks(module: str, source: str) -> list[str]:
    """`line:name` for every import from sympy.polys outside distcalc.py,
    and, in any module, every name, attribute or imported name
    `PolyElement` or `g_basis` and every attribute `G`.  A coefficient
    value leaves its algebra through one g-basis reader in distcalc, so
    no other module handles sympy's polynomial types."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            full = [a.name if isinstance(n, ast.Import)
                    else f"{n.module}.{a.name}" for a in n.names]
            if module != "distcalc.py":
                out += [f"{n.lineno}:{m}" for m in full
                        if m.startswith("sympy.polys")]
            names = [a.name for a in n.names]
        elif isinstance(n, ast.Name):
            names = [n.id]
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [n.name]
        elif isinstance(n, ast.Attribute):
            names = [n.attr] + ([".G"] if n.attr == "G" else [])
        else:
            continue
        out += [f"{n.lineno}:{m}" for m in names
                if m in ("PolyElement", "g_basis", ".G")]
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_coefficient_leaks(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert coefficient_leaks(module, fh.read()) == []


def test_coefficient_leak_detected():
    source = ("import sympy.polys.rings\n"
              "from sympy.polys.rings import PolyElement as PE\n"
              "from sympy import polys, Rational\n"
              "def f(alg, p):\n"
              "    return alg.g_basis(p), alg.G, isinstance(p, PE), g_basis\n"
              "def g_basis(p):\n"
              "    return p\n"
              "G = alg.Gs\n")
    names = ["2:PolyElement", "5:.G", "5:g_basis", "5:g_basis", "6:g_basis"]
    assert coefficient_leaks("models.py", source) == sorted(
        names + ["1:sympy.polys.rings", "2:sympy.polys.rings.PolyElement",
                 "3:sympy.polys"])
    assert coefficient_leaks("distcalc.py", source) == names
