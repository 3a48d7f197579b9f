"""Dead code and restated decisions, by plain ``ast`` scans, so tier-1 needs
no linter installed.

Unused imports: every name a module imports must be read somewhere in it.  A
package's ``__init__.py`` is exempt: its imports are the package's re-exports.

Unreferenced definitions: every module-level name and every method defined
in the package must be named somewhere outside its own definition, in any
scanned file.  Dunder names are exempt: Python calls them itself.

No test-only API: every definition in the package must also be named by the
program, in ``src`` or in the benchmark's ``perfbench``.  A name that only
tests or a re-export of an ``__init__.py`` use does not count, save for the
reference implementations in ``TEST_REFERENCES``.

One analysed domain: ``faultcast.bounds`` alone decides which eps a topology
takes, which it takes by default and whether a run is at least n_min or
d_min, and alone computes with eps.  No other module compares a bare eps with
a number, gives eps a number as a default, calls n_min or d_min, or has eps
as an operand of arithmetic.

One protocol table: ``faultcast.protocols.PROTOCOLS`` alone states what each
protocol id runs on and claims.  Outside it, no module compares a string that
names a protocol id or calls ``startswith`` on a prefix of one.

One run path: ``faultcast.harness.run_protocol`` alone calls ``simulate``,
so the public call and every run of ``harness.run`` build, step and
summarise a schedule the same way.

One import set: ``import faultcast`` loads no top-level package outside the
standard library but faultcast and numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faultcast.protocols import PROTOCOLS

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in string annotations and in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def _unused(path: Path, root: Path = ROOT) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
            if name not in read]


def _defined(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level name and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node.lineno, node.end_lineno)
                         for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{m.name}", m.lineno, m.end_lineno) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [d for d in found if not d[0].rpartition(".")[2].startswith("__")]


def _named(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute, imported name and ``__all__`` entry."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            found.extend((name, node.lineno) for name in ast.literal_eval(node.value))
    return found


def _unreferenced(package: Path, scanned: list[Path], root: Path = ROOT) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in scanned}
    named: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _named(tree):
            named.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(p for p in trees if p.is_relative_to(package)):
        for name, first, last in _defined(trees[path]):
            uses = named.get(name.rpartition(".")[2], [])
            if all(use == path and first <= line <= last for use, line in uses):
                out.append(f"{path.relative_to(root)}:{first}: {name}")
    return out


# Reference implementations that only tests call, each with the check it backs.
TEST_REFERENCES = {
    "classify_arc": "test_engine checks the engine's counts against it, arc by arc",
    "edge_boundary": "test_incremental checks NetworkState.boundary() against it",
}


def _program_files(root: Path, tops) -> list[Path]:
    """The modules under ``tops`` that are neither tests nor an ``__init__.py``."""
    return [path for top in tops for path in sorted((root / top).rglob("*.py"))
            if path.name != "__init__.py" and "tests" not in path.relative_to(root).parts]


def _number(node: ast.AST) -> bool:
    """Whether ``node`` is a number, or a conditional that may give one."""
    if isinstance(node, ast.IfExp):
        return _number(node.body) or _number(node.orelse)
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bare_eps(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "eps"
            or isinstance(node, ast.Attribute) and node.attr == "eps")


def _eps_defaults(node: ast.AST) -> list[ast.AST]:
    """Values given for eps in ``node``: an assignment, a parameter default, a
    keyword, an ``--eps`` option's default or a ``.get("eps", value)``
    fallback."""
    if isinstance(node, ast.Assign):
        return [node.value] if any(map(_bare_eps, node.targets)) else []
    if isinstance(node, ast.arguments):
        positional = node.posonlyargs + node.args
        pairs = [*zip(positional[len(positional) - len(node.defaults):], node.defaults),
                 *zip(node.kwonlyargs, node.kw_defaults)]
        return [value for arg, value in pairs if arg.arg == "eps" and value is not None]
    if not isinstance(node, ast.Call):
        return []
    strings = [a.value for a in node.args if isinstance(a, ast.Constant)]
    values = [k.value for k in node.keywords
              if k.arg == "eps" or k.arg == "default" and "--eps" in strings]
    if (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
            and strings[:1] == ["eps"] and len(node.args) == 2):
        values.append(node.args[1])
    return values


def _called(node: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _domain_leaks(path: Path, root: Path = ROOT) -> list[str]:
    """Places where ``path`` decides the analysed domain itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_bare_eps, operands)) and any(map(_number, operands)):
                found.append((node.lineno, "eps compared with a number"))
        if isinstance(node, ast.Call) and _called(node) in ("n_min", "d_min"):
            found.append((node.lineno, f"call to {_called(node)}"))
        found += [(value.lineno, "a number as default eps")
                  for value in _eps_defaults(node) if _number(value)]
    return [f"{path.relative_to(root)}:{line}: {what}" for line, what in sorted(found)]


def _eps_arithmetic(path: Path, root: Path = ROOT) -> list[str]:
    """Binary operations in ``path`` with a bare eps operand."""
    return [f"{path.relative_to(root)}:{node.lineno}: eps in arithmetic"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.BinOp) and (_bare_eps(node.left) or _bare_eps(node.right))]


def _names_protocol(node: ast.AST, ids) -> bool:
    """Whether ``node`` is a string naming a protocol id, or a tuple, list or
    set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_protocol(elt, ids) for elt in node.elts)
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in ids)


def _prefixes_protocol(node: ast.AST, ids) -> bool:
    """Whether ``node`` is a string that starts some protocol id, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return any(_prefixes_protocol(elt, ids) for elt in node.elts)
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(i.startswith(node.value) for i in ids))


def _protocol_leaks(path: Path, root: Path = ROOT, ids=tuple(PROTOCOLS)) -> list[str]:
    """Places where ``path``, outside a ``PROTOCOLS`` assignment, decides by
    protocol id itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = [range(node.lineno, node.end_lineno + 1) for node in tree.body
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "PROTOCOLS" for t in node.targets)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                _names_protocol(operand, ids) for operand in [node.left, *node.comparators]):
            found.append((node.lineno, "protocol id compared"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
                and any(_prefixes_protocol(arg, ids) for arg in node.args)):
            found.append((node.lineno, "startswith on a protocol id"))
    return [f"{path.relative_to(root)}:{line}: {what}" for line, what in sorted(found)
            if not any(line in lines for lines in table)]


def _run_path_leaks(path: Path, root: Path = ROOT) -> list[str]:
    """Calls to ``simulate`` in ``path`` outside the module-level
    ``run_protocol`` of a ``harness.py``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    runner = [node for node in tree.body if path.name == "harness.py"
              and isinstance(node, ast.FunctionDef) and node.name == "run_protocol"]
    inside = {id(node) for func in runner for node in ast.walk(func)}
    return [f"{path.relative_to(root)}:{node.lineno}: call to simulate"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _called(node) == "simulate" and id(node) not in inside]


def test_scan_finds_modules():
    assert len(list(_modules())) > 20


def test_no_unused_imports():
    unused = [entry for path in _modules() for entry in _unused(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_unreferenced_definitions():
    scanned = [path for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))]
    dead = _unreferenced(ROOT / "src" / "faultcast", scanned)
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)


@pytest.mark.parametrize("source, dead", [
    ("X = 1\n", ["X"]),
    ("X = 1\nY = X\n", ["Y"]),
    ("def f():\n    return f()\n", ["f"]),
    ("def f():\n    pass\nf()\n", []),
    ("class A:\n    def __init__(self):\n        self.m()\n    def m(self):\n        pass\n"
     "A()\n", []),
    ("class A:\n    def m(self):\n        pass\nA\n", ["A.m"]),
    ("a, b = 1, 2\n__all__ = ['a']\nprint(b)\n", []),
])
def test_unreferenced_rule(tmp_path, source, dead):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(source)
    found = _unreferenced(package, [package / "mod.py"], tmp_path)
    assert [entry.rsplit(": ", 1)[1] for entry in found] == dead


def test_no_test_only_definitions():
    found = _unreferenced(ROOT / "src" / "faultcast", _program_files(ROOT, ("src", "perfbench")))
    names = [entry.rsplit(": ", 1)[1] for entry in found]
    stale = sorted(set(TEST_REFERENCES) - set(names))
    assert not stale, f"the program names these, so TEST_REFERENCES need not: {stale}"
    test_only = [entry for entry, name in zip(found, names) if name not in TEST_REFERENCES]
    assert not test_only, "defined but named only by tests:\n" + "\n".join(test_only)


@pytest.mark.parametrize("files, dead", [
    ({"tests/test_mod.py": "from pkg.mod import f\nf()\n"}, ["f"]),
    ({"bench/tests/test_run.py": "f()\n"}, ["f"]),
    ({"pkg/__init__.py": "from .mod import f\n__all__ = ['f']\n"}, ["f"]),
    ({"bench/run.py": "from pkg.mod import f\nf()\n"}, []),
    ({"pkg/other.py": "from .mod import f\n\n\ndef g():\n    f()\n", "bench/run.py": "g()\n"},
     []),
])
def test_test_only_rule(tmp_path, files, dead):
    files = {"pkg/mod.py": "def f():\n    pass\n", **files}
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    found = _unreferenced(tmp_path / "pkg", _program_files(tmp_path, ("pkg", "bench")), tmp_path)
    assert [entry.rsplit(": ", 1)[1] for entry in found] == dead


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from x import a as b\na\n", ["b"]),
    ("from x import a\ndef f() -> 'a': pass\n", []),
    ("from x import a\n__all__ = ['a']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scan_rule(tmp_path, source, unused):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [entry.rsplit(": ", 1)[1] for entry in _unused(path, tmp_path)] == unused


def test_one_analysed_domain():
    package = ROOT / "src" / "faultcast"
    leaks = [entry for path in sorted(package.rglob("*.py")) if path.name != "bounds.py"
             for entry in _domain_leaks(path) + _eps_arithmetic(path)]
    assert not leaks, "analysed domain decided outside faultcast.bounds:\n" + "\n".join(leaks)


@pytest.mark.parametrize("source, leaks", [
    ("if eps > 1.0:\n    pass\n", ["eps compared with a number"]),
    ("ok = 0.0 < self.eps < 1.0\n", ["eps compared with a number"]),
    ("ok = eps <= -1\n", ["eps compared with a number"]),
    ("ok = k > x * eps or eps is None\n", []),
    ("bounds.n_min(a, e)\nd_min(a, e)\n", ["call to n_min", "call to d_min"]),
    ("def f(n, eps=2.0):\n    pass\n", ["a number as default eps"]),
    ("def f(*, eps=0.5, k=1):\n    pass\n", ["a number as default eps"]),
    ("def f(eps=None, k=2.0):\n    pass\n", []),
    ("run(8, eps=2)\n", ["a number as default eps"]),
    ("p.add_argument('--eps', type=float, default=0.5)\n", ["a number as default eps"]),
    ("p.add_argument('--n', type=int, default=8)\n", []),
    ("s.get('eps', 2.0)\n", ["a number as default eps"]),
    ("self.eps = 2.0 if kind == 'complete' else 0.5\n", ["a number as default eps"]),
    ("s.get('eps', 2.0 if complete else e)\n", ["a number as default eps"]),
    ("eps = bounds.default_eps(kind) if eps is None else eps\n", []),
    ("s.get('eps', bounds.default_eps(kind))\ns.get('n', 2)\n", []),
])
def test_domain_rule(tmp_path, source, leaks):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [entry.rsplit(": ", 1)[1] for entry in _domain_leaks(path, tmp_path)] == leaks


@pytest.mark.parametrize("source, found", [
    ("limit = x * eps\n", 1),
    ("rho = 1.0 - self.eps\nt = 3 * x * (1.0 + eps)\n", 2),
    ("k_limit, _ = bounds.almost_complete_limits(topo, alpha, eps)\ne = -eps\n", 0),
    ("ok = k > limit or eps is None\n", 0),
])
def test_eps_arithmetic_rule(tmp_path, source, found):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert len(_eps_arithmetic(path, tmp_path)) == found


def test_one_protocol_table():
    package = ROOT / "src" / "faultcast"
    leaks = [entry for path in sorted(package.rglob("*.py")) for entry in _protocol_leaks(path)]
    assert not leaks, "protocol ids decided outside PROTOCOLS:\n" + "\n".join(leaks)


@pytest.mark.parametrize("source, leaks", [
    ("if protocol == 'almost-kn':\n    pass\n", ["protocol id compared"]),
    ("ok = protocol != 'simple-rounds'\n", ["protocol id compared"]),
    ("ok = name in ('sod-complete', 'nosod-complete')\n", ["protocol id compared"]),
    ("chordal = config.protocol.startswith('sod')\n", ["startswith on a protocol id"]),
    ("ok = p.startswith(('x', 'greedy'))\n", ["startswith on a protocol id"]),
    ("ok = kind == 'complete' or seg.kind != 'simple_rounds'\n", []),
    ("ok = spec.startswith('random')\nrun('almost-kn')\n", []),
    ("PROTOCOLS = {'almost-kn': f(x == 'almost-kn')}\nok = y == 'hypercube'\n",
     ["protocol id compared"]),
])
def test_protocol_rule(tmp_path, source, leaks):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [entry.rsplit(": ", 1)[1] for entry in _protocol_leaks(path, tmp_path)] == leaks


def test_one_run_path():
    package = ROOT / "src" / "faultcast"
    leaks = [entry for path in sorted(package.rglob("*.py")) for entry in _run_path_leaks(path)]
    assert not leaks, "simulate called outside harness.run_protocol:\n" + "\n".join(leaks)


@pytest.mark.parametrize("name, source, leaks", [
    ("harness.py", "def run_protocol(p):\n    simulate(t, d, a, x, state=s)\n", []),
    ("harness.py", "def run(c):\n    _, trace = simulate(t, d, a, x, state=s)\n",
     ["call to simulate"]),
    ("harness.py", "def run_protocol(p):\n    pass\nprotocols.simulate(t)\n",
     ["call to simulate"]),
    ("cli.py", "def run_protocol(p):\n    simulate(t)\n", ["call to simulate"]),
    ("harness.py", "class A:\n    def run_protocol(self):\n        simulate(t)\n",
     ["call to simulate"]),
    ("protocols.py", "def f():\n    return run_protocol(p)[2]\ng = simulate\n", []),
])
def test_run_path_rule(tmp_path, name, source, leaks):
    path = tmp_path / name
    path.write_text(source)
    assert [entry.rsplit(": ", 1)[1] for entry in _run_path_leaks(path, tmp_path)] == leaks


def test_import_set():
    """The top-level packages ``import faultcast`` loads beyond what a bare
    interpreter has: the standard library, faultcast and numpy, read from a
    fresh interpreter with the source tree on its path."""
    code = ("import sys; before = set(sys.modules); import faultcast; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert set(out) - set(sys.stdlib_module_names) == {"faultcast", "numpy"}
