"""Every module-level import in ``src/scalehilbert`` is used or exported,
the dense generalized eigensolve and the SVD each have one set of
callers, ``OperatorAnalysis`` has one set of construction sites, and the
analysis is the one way into the certificates: no function is annotated
to take either an operator or an analysis, and the analysis has no
classmethod, such as a constructor that passes an analysis through.

No lint tool is a dependency, so each module is read with ``ast``: a
name bound by a module-level import must occur as a name elsewhere in
the module or be listed in its ``__all__``. Star imports (the package
``__init__``) export by design and are skipped. The same walk lists the
functions that reference a name, so that a second route to the
equivalence constants or to the rank cannot come back unnoticed.
"""

import ast
import re
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


def top_level_scopes(source: str, module: str):
    """(``module.function``, node) for every top-level function of
    ``source``, (``module.Class.method``, node) for every method of a
    top-level class and (``module.<module>``, node) for any other statement."""
    for node in ast.parse(source).body:
        scopes = [node]
        if isinstance(node, ast.ClassDef):
            scopes = [item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            owner = getattr(scope, "name", "<module>")
            yield f"{module}.{node.name}.{owner}" if isinstance(node, ast.ClassDef) else f"{module}.{owner}", scope


def referencing_functions(source: str, module: str, name: str) -> set:
    """The scopes of :func:`top_level_scopes` that reference ``name``, as a
    bare name or as an attribute, other than its own definition."""
    return {
        qualified
        for qualified, scope in top_level_scopes(source, module)
        for inner in ast.walk(scope)
        if (isinstance(inner, ast.Name) and inner.id == name) or (isinstance(inner, ast.Attribute) and inner.attr == name)
    }


def constructing_functions(source: str, module: str, cls: str) -> set:
    """The scopes of :func:`top_level_scopes` that call ``cls``, as a bare
    name or as an attribute, or, in a method of ``cls`` itself, through the
    classmethod argument ``cls``."""
    found = set()
    for qualified, scope in top_level_scopes(source, module):
        own = qualified.startswith(f"{module}.{cls}.")
        for inner in ast.walk(scope):
            if isinstance(inner, ast.Call):
                callee = getattr(inner.func, "id", getattr(inner.func, "attr", None))
                if callee == cls or (own and callee == "cls"):
                    found.add(qualified)
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


def test_walker_finds_constructions():
    source = ("class A:\n    @classmethod\n    def of(cls, x):\n        return cls(x)\n    def f(self):\n        return A\n"
              "def g():\n    return m.A(1)\ndef h(cls):\n    return cls(1)\n")
    assert constructing_functions(source, "m", "A") == {"m.A.of", "m.g"}


def test_operator_analysis_has_three_construction_sites():
    # the top grade k_max is named once per analysis: the CLI builds one at
    # --k-max, the batch one per operator at grade 0, and the two criteria
    # that start from a bare operator one each (the fractal criterion at its
    # grade 3, the roundtrip at grade 0); every other function shares the
    # analysis it is given
    sites = set().union(*(constructing_functions(p.read_text(), p.stem, "OperatorAnalysis") for p in SRC.glob("*.py")))
    assert sites == {"cli.cmd_hessian_analyze", "verify.analyze_operator_batch", "verify.criterion_fractal_certificate",
                     "verify.criterion_roundtrip"}


def mixed_annotations(source: str, module: str) -> set:
    """``module.function`` for every function of ``source``, nested or not,
    with an argument or return annotation that names both ``ScaleOperator``
    and ``OperatorAnalysis``, as names or inside a string annotation."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        arguments = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        for annotation in filter(None, [*(arg.annotation for arg in arguments), node.returns]):
            names = set()
            for inner in ast.walk(annotation):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
                elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    names |= set(re.findall(r"\w+", inner.value))
            if {"ScaleOperator", "OperatorAnalysis"} <= names:
                found.add(f"{module}.{node.name}")
    return found


def classmethods(source: str, cls: str) -> list:
    """The methods of the top-level class ``cls`` decorated as classmethods."""
    return [
        item.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(d, "id", getattr(d, "attr", None)) == "classmethod" for d in item.decorator_list)
    ]


def test_walker_finds_mixed_annotations_and_classmethods():
    source = ("def f(op: ScaleOperator | OperatorAnalysis):\n    pass\n"
              "def g(an: OperatorAnalysis) -> ScaleOperator:\n    pass\n"
              "class A:\n    @classmethod\n    def of(cls, op) -> 'ScaleOperator | OperatorAnalysis':\n        pass\n"
              "    def h(self, an: 'OperatorAnalysis'):\n        pass\n")
    assert mixed_annotations(source, "m") == {"m.f", "m.of"}
    assert classmethods(source, "A") == ["of"]


def test_one_way_into_the_certificates():
    # every certificate function takes the analysis; none accepts a bare
    # operator beside it, and no classmethod builds or passes one through
    assert set().union(*(mixed_annotations(p.read_text(), p.stem) for p in SRC.glob("*.py"))) == set()
    assert classmethods((SRC / "hessian.py").read_text(), "OperatorAnalysis") == []
