"""Every name a module imports is used in that module.

No linter ships with the project, so this scan stands in for one.  The
package ``__init__`` is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    files = [
        p
        for p in sorted((ROOT / "src" / "weylalg").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
        if p.name != "__init__.py"
    ]
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []
