"""Checks on the package sources themselves."""
import ast
from pathlib import Path

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
