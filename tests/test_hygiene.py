"""Source hygiene: no module keeps a top-level import it never uses, no
private top-level name outlives its last use, no public name or defaulted
parameter is kept for its own tests alone, and no function calls itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "boundedpowers"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads(''))\n") == [
        "os", "dumps",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _loaded_names(node: ast.AST) -> Counter:
    """Every name read under ``node``, bare (``_f``) or as an attribute (``m._f``)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def _private_definitions(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level function, class or assignment
    that no code in ``sources`` reads outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = sum((_loaded_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _private_definitions(node)
        if reads[name] - _loaded_names(node)[name] <= 0
    ]


def test_detects_a_dead_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD: int = 2\n__all__ = []\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Kept:\n    pass\n",
        "b.py": "import a\nfrom a import _USED\nprint(_USED, a._Kept)\n",
    }
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_recursive"]


def test_no_dead_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


# public names that no src/ module or demo reads, each with the reason it stays
UNREAD_PUBLIC_ALLOWLIST: dict[str, str] = {}


def _public_definitions(node: ast.stmt) -> list[tuple[str, ast.AST]]:
    """(name, definition) of a public top-level function or class, of every
    public method of a top-level class, and of every public annotated field
    of a public top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    if not isinstance(node, (*functions, ast.ClassDef)):
        return []
    found = [] if node.name.startswith("_") else [(node.name, node)]
    if isinstance(node, ast.ClassDef):
        found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                  if isinstance(sub, functions) and not sub.name.startswith("_")]
        if not node.name.startswith("_"):
            found += [(f"{node.name}.{sub.target.id}", sub) for sub in node.body
                      if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                      and not sub.target.id.startswith("_")]
    return found


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module:name`` for each public definition in ``sources`` that no code in
    ``sources`` or ``readers`` reads outside its own definition.  A name is
    matched bare, so a method counts as read wherever any attribute of that
    name is read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = sum((_loaded_names(tree) for tree in trees.values()), Counter())
    reads += sum((_loaded_names(ast.parse(text)) for text in readers.values()), Counter())
    return [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for node in tree.body
        for qualified, definition in _public_definitions(node)
        if reads[name := qualified.rpartition(".")[2]] - _loaded_names(definition)[name] <= 0
    ]


def test_detects_a_public_name_only_tests_read():
    sources = {
        "a.py": "def used():\n    pass\n"
                "def read_by_tests():\n    pass\n"
                "def recursive(n):\n    return recursive(n - 1)\n"
                "class Kept:\n    def step(self):\n        return self.helper()\n"
                "    def helper(self):\n        pass\n    def unused(self):\n        pass\n"
                "    def _private(self):\n        pass\n",
        "b.py": "from a import used\nused()\n",
    }
    readers = {"demo.py": "import a\na.Kept().step()\n"}
    test_file = "from a import read_by_tests\nread_by_tests()\n"
    # test files are not passed as readers, so their reads do not count
    assert unread_public_names(sources, readers) == [
        "a.py:read_by_tests", "a.py:recursive", "a.py:Kept.unused",
    ]
    assert unread_public_names(sources, {**readers, "test_a.py": test_file}) == [
        "a.py:recursive", "a.py:Kept.unused",
    ]


def test_detects_a_public_field_only_tests_read():
    sources = {
        "a.py": "from dataclasses import dataclass\n"
                "@dataclass\nclass Map:\n    n: int\n    read_by_tests: int\n"
                "    unread: tuple[int, ...] = ()\n    _private: int = 0\n"
                "@dataclass\nclass _Hidden:\n    unread_too: int\n"
                "def size(m: Map) -> int:\n    return m.n + _Hidden(1).unread_too\n",
    }
    readers = {"demo.py": "from a import Map, size\nprint(size(Map(1, 2)))\n"}
    test_file = "from a import Map\nassert Map(1, 2).read_by_tests == 2\n"
    # a field is matched bare, like a method; a private class's fields are not checked
    assert unread_public_names(sources, readers) == ["a.py:Map.read_by_tests", "a.py:Map.unread"]
    assert unread_public_names(sources, {**readers, "test_a.py": test_file}) == ["a.py:Map.unread"]


def test_no_public_name_read_only_by_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))}
    assert unread_public_names(sources, readers) == list(UNREAD_PUBLIC_ALLOWLIST)


def self_calling_functions(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each function, nested ones included, that calls
    itself by name: bare (``f()``) or as a method (``self.f()``).  Such a
    recursion is bounded by the interpreter's recursion limit, which an
    input as plain as a long path exceeds."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(node) if isinstance(call, ast.Call)
                and (isinstance(call.func, ast.Name) or isinstance(call.func, ast.Attribute)
                     and isinstance(call.func.value, ast.Name) and call.func.value.id == "self")
            }
            if node.name in called:
                found.append(f"{module}:{node.name}")
    return found


def test_detects_a_self_calling_function():
    sources = {
        "a.py": "def flat(n):\n    return [flat] if n else []\n"
                "def outer(n):\n    def inner(k):\n        return inner(k - 1)\n"
                "    return inner(n)\n"
                "class C:\n    def walk(self, n):\n        return self.walk(n - 1)\n"
                "    def other(self, x):\n        return x.other()\n",
        "b.py": "def count(n):\n    return 0 if n == 0 else 1 + count(n - 1)\n",
    }
    assert self_calling_functions(sources) == ["a.py:inner", "a.py:walk", "b.py:count"]


def test_no_function_calls_itself():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert self_calling_functions(sources) == []


# defaulted parameters that no src/ module or demo passes, each with the reason it stays
UNPASSED_DEFAULT_ALLOWLIST = {
    "cli.py:main(argv)":
        "tests and benchmarks/layertrace.py drive the command line in-process",
    "homology.py:betti_table_hochster(char)":
        "an oracle runs at the characteristic it checks",
    "homology.py:betti_table_taylor(char)":
        "an oracle runs at the characteristic it checks",
}


def _defaulted_parameters(definition: ast.AST, bound: bool) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default, the position counted
    among the arguments a call passes (so without ``self`` or ``cls`` when
    ``bound``); None for a keyword-only one."""
    args = definition.args
    positional = args.posonlyargs + args.args
    offset = 1 if bound else 0
    first = len(positional) - len(args.defaults)
    found = [(k - offset, a.arg) for k, a in enumerate(positional) if k >= first]
    return found + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def unpassed_defaults(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``module:function(parameter)`` for each defaulted parameter of a public
    top-level function, or of a public method of a top-level class, in
    ``sources`` that no call in ``sources`` or ``callers`` passes, by keyword
    or by position.  A call is matched by the bare name it calls, like a read
    in ``unread_public_names``; ``*args`` passes every position from its own
    on, and ``**kwargs`` every keyword."""
    passed: dict[str, list[tuple[float, set[str] | None]]] = {}
    for text in (*sources.values(), *callers.values()):
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            reach = float("inf") if starred else len(call.args)
            keywords = {k.arg for k in call.keywords}
            passed.setdefault(name, []).append((reach, None if None in keywords else keywords))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, functions):
                defined = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                defined = [(f"{node.name}.{sub.name}", sub,
                            not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in sub.decorator_list))
                           for sub in node.body if isinstance(sub, functions)]
            else:
                continue
            for qualified, definition, bound in defined:
                if definition.name.startswith("_"):
                    continue
                calls = passed.get(definition.name, [])
                for position, parameter in _defaulted_parameters(definition, bound):
                    if not any(keywords is None or parameter in keywords
                               or position is not None and position < reach
                               for reach, keywords in calls):
                        found.append(f"{module}:{qualified}({parameter})")
    return found


def test_detects_a_default_no_call_passes():
    sources = {
        "a.py": "def f(x, y=1, z=2, *, w=3, v=4):\n    pass\n"
                "def g(x=0):\n    pass\n"
                "def _private(x=0):\n    pass\n"
                "class C:\n    def m(self, a=1, b=2):\n        pass\n"
                "    @staticmethod\n    def s(a=1):\n        pass\n"
                "    @classmethod\n    def k(cls, a=1):\n        pass\n",
        "b.py": "from a import C, f, g\nf(0, 5, w=1)\nC().m(3)\nC.s(1)\ng(*[])\n",
    }
    callers = {"demo.py": "import a\nopts = {}\na.C.k(**opts)\n"}
    test_file = "from a import f\nf(0, z=1, v=2)\n"
    # test files are not passed as callers, so their calls do not count
    assert unpassed_defaults(sources, callers) == ["a.py:f(z)", "a.py:f(v)", "a.py:C.m(b)"]
    assert unpassed_defaults(sources, {**callers, "test_a.py": test_file}) == ["a.py:C.m(b)"]


def test_no_default_that_only_tests_pass():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = {p.name: p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))}
    assert unpassed_defaults(sources, callers) == list(UNPASSED_DEFAULT_ALLOWLIST)
