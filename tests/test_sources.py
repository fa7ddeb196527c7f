"""Checks on the package sources themselves."""
import argparse
import ast
from pathlib import Path

import pytest

from specwalk.cli import build_parser

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "specwalk").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_sources_are_ascii():
    assert SOURCES
    for path in SOURCES:
        for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
            assert line.isascii(), f"{path.name}:{lineno}: non-ASCII text"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in `tree` and never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = [p for p in SOURCES if p.name != "__init__.py"] + SCRIPTS
    assert SCRIPTS
    unused = {
        p.relative_to(ROOT).as_posix(): found
        for p in paths
        if (found := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not unused


def _unused_parameters(tree: ast.Module) -> list[str]:
    """Parameters of a function or lambda in `tree` that its body never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{node.lineno}: {name}({p.arg})" for p in params if p.arg not in read]
    return found


def test_no_unused_parameters():
    unused = {
        p.relative_to(ROOT).as_posix(): found
        for p in SOURCES + SCRIPTS
        if (found := _unused_parameters(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not unused


def _cfg_reads(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """The `cfg.<option>` reads of function `name` of cli.py and of every
    cli.py function it calls by name."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
            reads.add(node.attr)
        callee = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
        if callee in functions and callee not in seen:
            reads |= _cfg_reads(functions, callee, seen)
    return reads


@pytest.mark.parametrize("command", ["spectrum", "zeno", "resources"])
def test_each_subcommand_declares_exactly_the_options_its_code_reads(command):
    """An option that no code of its subcommand reads would be parsed and
    then ignored.  An option with a single choice has nothing to read."""
    tree = ast.parse((ROOT / "src" / "specwalk" / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = _cfg_reads(functions, f"run_{command}", set()) | _cfg_reads(functions, "main", set())
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [a for a in sub.choices[command]._actions if a.dest != "help"]
    settable = {a.dest for a in options if a.choices is None or len(a.choices) > 1}
    assert reads == settable | {sub.dest}


def _statement_reads(stmt: ast.stmt) -> set[str]:
    """Names that `stmt` reads: as a name, as an attribute or by import."""
    reads = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
    return reads


def test_no_unreferenced_private_code():
    """Every private module-level function or class of the package is named
    somewhere in the package outside its own definition."""
    statements = [
        (path, stmt, _statement_reads(stmt))
        for path in SOURCES
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unreferenced = [
        f"{path.name}: {stmt.name}"
        for path, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in reads for _, other, reads in statements if other is not stmt)
    ]
    assert not unreferenced
