"""Every module-level import in ``src/scalehilbert`` is used or exported.

No lint tool is a dependency, so each module is read with ``ast``: a
name bound by a module-level import must occur as a name elsewhere in
the module or be listed in its ``__all__``. Star imports (the package
``__init__``) export by design and are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scalehilbert"
# bound but unused on purpose: the benchmark tracer's test reads cli.resolvent
KEPT = {"cli": ["resolvent"]}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used | exported)


def test_checker_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\n__all__ = ['loads']\nnp.zeros(dumps(1))\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == KEPT.get(path.stem, [])
