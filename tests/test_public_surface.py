"""Every public function and class of the package has a caller outside tests.

A public top-level function or class in src/fedgame/*.py must be referenced
from src/ or perfbench/: by name, as an attribute, or as an
identifier string (perfbench binds some names through getattr).  The
package's __init__ imports are not references, and nor is anything under
tests/, so a name whose only caller is a test fails here and belongs in the
tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def referenced_names(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names(
        path for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")
    )
    unused = [
        f"{module.stem}.{node.name}"
        for module in sorted((ROOT / "src" / "fedgame").glob("*.py"))
        for node in ast.parse(module.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"public names whose only callers are tests: {unused}"
