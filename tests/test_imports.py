"""No module of the package imports a name it never uses; ``__init__.py``
is left out, since the names it imports are the public surface."""

import ast

import pytest

from conftest import ROOT

MODULES = sorted(
    path.name for path in (ROOT / "src" / "hopfcore").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module's source that no other
    expression of it reads, in line order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (ROOT / "src" / "hopfcore" / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_unused_imports_are_found():
    source = "from a import b, c\nimport d.e\nimport f as g\n\nc(g)\n"
    assert unused_imports(source) == ["b", "d"]
