"""Source hygiene: every imported name in src/ and tests/ is used, no
module in src/ takes an underscore name from another, every library size
cap is refused by errors.check_cap alone, every memo in src/ is bounded,
every parameter in src/ is read, and every leaf error class is raised;
only graphs.py searches for cycles."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from edgedepth.errors import CAPS, TooLargeError, check_cap

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__ list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including those inside string
    annotations such as -> "FieldChoice"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str, is_package_init: bool) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = _used_names(tree)
    if is_package_init:
        used |= _exported(tree)
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


def test_unused_imports_detected():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nprint(sys)\n"
    assert unused_imports(src, False) == ["line 2: os", "line 3: c"]
    assert unused_imports("from .m import f\n__all__ = ['f']\n", True) == []
    assert unused_imports("from .m import f\n__all__ = ['f']\n", False) == ["line 1: f"]
    assert unused_imports('from typing import Optional\ndef g() -> "Optional[int]": ...\n', False) == []


def test_no_unused_imports():
    bad = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for problem in unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py"):
            bad.append(f"{path.relative_to(ROOT)} {problem}")
    assert bad == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """The underscore names a module takes from another: imported by name,
    or read as an attribute of an imported module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module is None:  # from . import depth
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_private_imports_detected():
    src = (
        "from .depth import _scan, scan\nfrom . import depth\nimport numpy as np\n"
        "a = depth._power_scan\nb = np.__version__\nc = depth.scan\nd = scan._x\n"
    )
    assert private_imports(src) == ["line 1: _scan", "line 4: depth._power_scan"]


def test_no_private_imports_in_src():
    bad = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for problem in private_imports(path.read_text(encoding="utf-8")):
            bad.append(f"{path.relative_to(ROOT)} {problem}")
    assert bad == []


def raisers(source: str, name: str) -> list[tuple[int, str]]:
    """(line, where) of every raise name(...) or raise name, where is the
    dotted path of the defs around it ("<module>" at the top level)."""
    found = []

    def visit(node: ast.AST, where: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where += (node.name,)
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if name in (getattr(exc, "id", None), getattr(exc, "attr", None)):
            found.append((node.lineno, ".".join(where) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), ())
    return sorted(found)


def test_raisers_detected():
    src = (
        "def check(r):\n    if r > CAPS['vertex']:\n        raise TooLargeError(f'r={r}')\n"
        "class A:\n    def f(self):\n        raise errors.TooLargeError('box')\n"
        "raise TooLargeError\nraise ValueError('not a cap')\n"
    )
    assert raisers(src, "TooLargeError") == [(3, "check"), (6, "A.f"), (7, "<module>")]


def cap_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, cap) of every check_cap(...) or mod.check_cap(...) call; cap
    is the first argument when it is a string literal, else None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "check_cap" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            first = node.args[0] if node.args else None
            literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
            found.append((node.lineno, first.value if literal else None))
    return sorted(found)


def test_cap_calls_detected():
    src = (
        "check_cap('box', n, f'box has {n} cells')\n"
        "errors.check_cap(name, n, 'cells')\n"
        "check_cap(amount=n)\ncheck_vertex(r)\n"
    )
    assert cap_calls(src) == [(1, "box"), (2, None), (3, None)]


def _src_sources() -> dict[str, str]:
    return {
        path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src").rglob("*.py"))
    }


# "..., cap is X (name)": the user's --max-r, or one of the library's caps
_CAP_MESSAGE = re.compile(r".+, cap is [^,()]+ \((--max-r|the [a-z]+ cap)\)")


def test_cap_messages_name_their_cap():
    # errors.check_cap alone decides how a library cap's refusal reads, and
    # cli.main refuses the user's --max-r; every other site calls
    # check_cap with a key of errors.CAPS, and every key has a caller
    sources = _src_sources()
    found = [
        (where, name)
        for where, source in sources.items()
        for _, name in raisers(source, "TooLargeError")
    ]
    assert found == [("edgedepth/cli.py", "main"), ("edgedepth/errors.py", "check_cap")]
    named = [(where, cap) for where, source in sources.items() for _, cap in cap_calls(source)]
    assert [call for call in named if call[1] not in CAPS] == []
    assert {cap for _, cap in named} == set(CAPS)
    # every lcm box is scanned through monomials.lcm_box, the one box check
    assert [where for where, cap in named if cap == "box"] == ["edgedepth/monomials.py"]
    assert [where for where, source in sources.items() if "(--max-r)" in source] == [
        "edgedepth/cli.py"
    ]
    for name, cap in CAPS.items():
        with pytest.raises(TooLargeError) as exc:
            check_cap(name, cap + 1, f"{name} work of {cap + 1}")
        assert _CAP_MESSAGE.fullmatch(str(exc.value))
        assert str(exc.value).endswith(f", cap is {cap} (the {name} cap)")
        check_cap(name, cap, "at the cap")  # the cap itself is allowed


def test_vertex_cap_is_checked_only_in_graphs():
    # the vertex cap bounds the 2^r arrays that depth.py builds over a
    # graph's vertices and the exponential searches of graphs.py (a
    # block's cycles, the maximal independent sets): only those two modules
    # check it, and no module but errors.py reads a cap's value
    sources = _src_sources()
    vertex = {
        where for where, source in sources.items() for _, cap in cap_calls(source) if cap == "vertex"
    }
    assert vertex == {"edgedepth/graphs.py", "edgedepth/depth.py"}
    readers = [
        where
        for where, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "CAPS"
    ]
    assert set(readers) == {"edgedepth/errors.py"}


def _decorator_name(node: ast.expr) -> str | None:
    """The name a decorator goes by: lru_cache for @lru_cache,
    @functools.lru_cache or @lru_cache(...); None unless a name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def memos(source: str) -> list[tuple[int, str, str | None]]:
    """(line, decorator, problem) of every functools memo: an lru_cache must
    pass a maxsize other than None, and cache may only wrap a function of
    no parameters, which it stores once."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            name, problem = _decorator_name(dec), None
            if name == "lru_cache":
                sizes = [] if not isinstance(dec, ast.Call) else dec.args + [
                    k.value for k in dec.keywords if k.arg == "maxsize"
                ]
                if not sizes:
                    problem = "no maxsize"
                elif isinstance(sizes[0], ast.Constant) and sizes[0].value is None:
                    problem = "maxsize=None"
            elif name == "cache":
                a = node.args
                if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                    problem = f"cache on {node.name}, which takes parameters"
            else:
                continue
            found.append((dec.lineno, name, problem))
    return sorted(found)


def test_memos_detected():
    src = (
        "@lru_cache(maxsize=1 << 16)\ndef a(x): ...\n"
        "@functools.lru_cache(None)\ndef b(x): ...\n"
        "@lru_cache\ndef c(x): ...\n"
        "@functools.cache\ndef d(): ...\n"
        "@cache\ndef e(x, *, y): ...\n"
        "@property\ndef f(self): ...\n"
    )
    assert memos(src) == [
        (1, "lru_cache", None),
        (3, "lru_cache", "maxsize=None"),
        (5, "lru_cache", "no maxsize"),
        (7, "cache", None),
        (9, "cache", "cache on e, which takes parameters"),
    ]


def test_memos_are_bounded():
    bad, count = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, _, problem in memos(path.read_text(encoding="utf-8")):
            count += 1
            if problem is not None:
                bad.append(f"{path.relative_to(ROOT)} line {line}: {problem}")
    assert bad == [] and count >= 5


def unread_parameters(source: str) -> list[str]:
    """Every parameter of a def or lambda that its body never reads, as
    "line N: function(parameter)"; a nested function's read counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        name = getattr(node, "name", "lambda")
        found += [(p.lineno, f"{name}({p.arg})") for p in params if p.arg not in read]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_unread_parameters_detected():
    src = (
        "def f(a, b, *args, c=1, **kw):\n    return a + len(kw)\n"
        "search = lambda least: walk(floor)\n"
        "def outer(x, y=lambda z: z):\n    def inner():\n        return x\n    return inner, y\n"
    )
    assert unread_parameters(src) == [
        "line 1: f(args)", "line 1: f(b)", "line 1: f(c)", "line 3: lambda(least)",
    ]


def test_every_parameter_is_read():
    bad, count = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        count += sum(isinstance(n, ast.FunctionDef) for n in ast.walk(ast.parse(source)))
        for problem in unread_parameters(source):
            bad.append(f"{path.relative_to(ROOT)} {problem}")
    assert bad == [] and count >= 50


def readers(source: str, name: str) -> list[tuple[int, str]]:
    """(line, where) of every read of name, bare or as an attribute, where
    is the dotted path of the defs around it ("<module>" at the top level);
    a call and any other read count alike."""
    found = []

    def visit(node: ast.AST, where: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where += (node.name,)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.append((node.lineno, ".".join(where) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), ())
    return sorted(found)


def test_readers_detected():
    src = (
        "from .graphs import cycles_of_length\n"
        "def profile(g):\n    return cycles_of_length(g, 3)\n"
        "class A:\n    def f(self, g):\n        search = graphs.cycles_of_length\n"
        "        return [len(c) for c in search(g, 4)]\n"
        "cycles_of_length = None\nrings = map(len, cycles_of_length)\n"
    )
    assert readers(src, "cycles_of_length") == [(3, "profile"), (6, "A.f"), (9, "<module>")]


def test_cycles_are_searched_only_in_graphs():
    # the cycle order is known to graphs.py alone: every other module reads
    # cycle_profile's facts or spanning_unicyclic_subgraph's cut
    found = {
        path.relative_to(ROOT / "src").as_posix()
        for path in (ROOT / "src").rglob("*.py")
        if readers(path.read_text(encoding="utf-8"), "cycles_of_length")
    }
    assert found == {"edgedepth/graphs.py"}


def test_membership_is_asked_only_through_the_kernel():
    # "is x^a in I?" has one kernel in src, monomials.membership; contains
    # stays the definition that the tests compare it against
    found = [
        (path.relative_to(ROOT / "src").as_posix(), line, where)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, where in readers(path.read_text(encoding="utf-8"), "contains")
    ]
    assert found == []


def leaf_classes(source: str) -> set[str]:
    """The module-level classes that no other class of the module names as
    a base."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for cls in classes for base in cls.bases if isinstance(base, ast.Name)}
    return {cls.name for cls in classes} - bases


def raised_names(source: str) -> set[str]:
    """The name of every class raised, as raise X, raise X(...) or
    raise mod.X(...)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            found.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            found.add(exc.attr)
    return found


def test_unraised_errors_detected():
    errors = (
        "class Base(Exception):\n    pass\n"
        "class Graph(Base):\n    pass\n"
        "class Loop(Graph):\n    pass\n"
        "class Parse(Base):\n    pass\n"
        "class Unused(Base):\n    pass\n"
    )
    assert leaf_classes(errors) == {"Loop", "Parse", "Unused"}
    src = (
        "raise Loop('edge (1, 1)')\nraise errors.Parse('bad line') from exc\n"
        "try:\n    pass\nexcept Unused:\n    raise\n"
    )
    assert raised_names(src) == {"Loop", "Parse"}
    assert leaf_classes(errors) - raised_names(src) == {"Unused"}


def test_every_leaf_error_is_raised():
    # an error class that nothing subclasses and nothing raises outlived
    # the code that raised it
    leaves = leaf_classes((ROOT / "src" / "edgedepth" / "errors.py").read_text(encoding="utf-8"))
    raised = set().union(
        *(raised_names(path.read_text(encoding="utf-8")) for path in (ROOT / "src").rglob("*.py"))
    )
    assert sorted(leaves - raised) == [] and len(leaves) >= 10
