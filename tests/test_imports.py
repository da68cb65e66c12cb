import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qexec").glob("*.py"))
# The runtime dependencies that pyproject.toml declares, by import name.
DECLARED = {"numpy", "yaml", "requests"}


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a source file."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_imports_only_the_standard_library_and_declared_dependencies():
    assert len(SOURCES) > 1
    undeclared = {
        path.name: sorted(imported_packages(path) - sys.stdlib_module_names - DECLARED)
        for path in SOURCES
    }
    assert {name: packages for name, packages in undeclared.items() if packages} == {}
