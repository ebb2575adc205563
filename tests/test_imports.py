"""No module imports a name at module level that it never uses.

The repository has no lint step, so this AST scan stands in for one over the
package, the tests and the scripts.  Imports from __future__ are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/envlld", "tests", "scripts")
               for p in (ROOT / d).glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport sys\nsys.exit\n"
    assert unused_imports(src) == [(2, "os")]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
