"""Guard: every module-level private name in the package has a use."""

import ast
from pathlib import Path

import semlab

PACKAGE = Path(semlab.__file__).resolve().parent


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_private_names(package: Path) -> list[str]:
    """`module.name` for each module-level `_name` (dunders excepted) that no
    other top-level statement of any module in `package` refers to."""
    statements = []  # (module, names defined, names referred to)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            statements.append((path.stem, _defined_names(stmt), refs))
    unused = []
    for i, (module, defined, _) in enumerate(statements):
        for name in defined:
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                name in refs for j, (_, _, refs) in enumerate(statements) if j != i
            ):
                unused.append(f"{module}.{name}")
    return unused


def test_no_unused_private_names():
    assert unused_private_names(PACKAGE) == []


def test_guard_sees_an_unused_helper(tmp_path):
    # `_dead` refers only to itself; the other two have uses elsewhere.
    (tmp_path / "a.py").write_text(
        "def _helper():\n    return 1\n\n"
        "def _dead():\n    return _dead()\n\n"
        "_TABLE = _helper()\n"
    )
    (tmp_path / "b.py").write_text("from .a import _TABLE\n")
    assert unused_private_names(tmp_path) == ["a._dead"]
