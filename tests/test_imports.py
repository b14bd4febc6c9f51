"""Every name a module imports is used in that module, and no private
function or class in the package is dead.

No linter ships with the project, so these scans stand in for one.  The
package ``__init__`` is exempt from the import scan: its imports are the
public API.  A private name (one leading underscore, not a dunder) defined
anywhere in ``src/weylalg`` must be referenced, by name or as an
attribute, somewhere in ``src/weylalg`` other than its own definition;
the same holds for the private helpers of ``tests``, within ``tests``.
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


def _dead_private_names(folder):
    """Private functions and classes defined in ``folder``'s modules and
    referenced nowhere in them."""
    defined, referenced = {}, set()
    for path in sorted((ROOT / folder).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    return [f"{where} {name}" for name, where in defined.items() if name not in referenced]


def test_every_private_function_is_referenced():
    assert _dead_private_names("src/weylalg") == []


def test_every_private_test_helper_is_referenced():
    # the tests are scanned on their own, so a library name used only by a
    # test still counts as dead in the package
    assert _dead_private_names("tests") == []
