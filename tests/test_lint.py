"""Unused imports: every name a module imports must be read somewhere in it.

A plain ``ast`` scan, so tier-1 needs no linter installed.  A package's
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

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


def test_scan_finds_modules():
    assert len(list(_modules())) > 20


def test_no_unused_imports():
    unused = [entry for path in _modules() for entry in _unused(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


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
