"""Every module-level import in ``src/scalehilbert`` is used or exported,
and the dense generalized eigensolve and the SVD each have one set of
callers.

No lint tool is a dependency, so each module is read with ``ast``: a
name bound by a module-level import must occur as a name elsewhere in
the module or be listed in its ``__all__``. Star imports (the package
``__init__``) export by design and are skipped. The same walk lists the
functions that reference a name, so that a second route to the
equivalence constants or to the rank cannot come back unnoticed.
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


def referencing_functions(source: str, module: str, name: str) -> set:
    """``module.function`` (or ``module.Class.method``) for every top-level
    definition of ``source`` that references ``name``, as a bare name or as
    an attribute, other than its own definition; ``module.<module>`` for a
    reference outside any definition."""
    found = set()
    for node in ast.parse(source).body:
        scopes = [node]
        if isinstance(node, ast.ClassDef):
            scopes = [item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            owner = getattr(scope, "name", "<module>")
            qualified = f"{node.name}.{owner}" if isinstance(node, ast.ClassDef) else owner
            for inner in ast.walk(scope):
                if (isinstance(inner, ast.Name) and inner.id == name) or (
                    isinstance(inner, ast.Attribute) and inner.attr == name
                ):
                    found.add(f"{module}.{qualified}")
    return found


def callers_in_src(name: str) -> set:
    return set().union(*(referencing_functions(p.read_text(), p.stem, name) for p in SRC.glob("*.py")))


def test_walker_finds_bare_and_attribute_references():
    source = ("import linalg\nfrom linalg import solve\ndef f():\n    return linalg.solve(1)\n"
              "class C:\n    def g(self):\n        return solve\n    def h(self):\n        return 1\n"
              "def solve():\n    return 0\nX = solve\n")
    assert referencing_functions(source, "m", "solve") == {"m.f", "m.C.g", "m.<module>"}


def test_generalized_eigh_has_one_definition_of_equivalence():
    # every equivalence constant goes through spaces.equivalence_constants;
    # the inclusion singular values need the whole spectrum, not its ends
    assert callers_in_src("generalized_eigh") == {"spaces.equivalence_constants", "spaces.inclusion_singular_values"}


def test_cholesky_is_called_only_inside_linalg():
    assert {caller.split(".")[0] for caller in callers_in_src("cholesky_spd")} == {"linalg"}


def test_svd_has_one_route_to_the_rank():
    # the kernel certificate's fallback after its full-rank proof, and the
    # principal angles between the subspaces that SVD returns
    assert callers_in_src("svd") == {"hessian.check_kernel_cokernel", "linalg.principal_angles"}
