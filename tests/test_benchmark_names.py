"""The names the benchmark harness in ``certbench/`` binds by string.

The harness checks every hessian-analyze report against its own list of
certificate names, and its tracer patches functions by module and name.
A rename in ``scalehilbert`` that breaks one of them zeroes a per-layer
metric or fails the dense-operator check without failing any other test,
so this module reads those lists (without changing them) and resolves
every entry.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from scalehilbert import cli, hessian, verify

CERTBENCH = Path(__file__).resolve().parents[1] / "certbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"certbench_{name}", CERTBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _resolve(qualified):
    module, attr = qualified.split(".")
    return getattr(importlib.import_module(f"scalehilbert.{module}"), attr, None)


def test_registry_matches_the_dense_check():
    assert [c.name for c in verify.OPERATOR_CERTIFICATES] == list(workloads.HESSIAN_CERTIFICATES)


@pytest.mark.parametrize(
    "qualified",
    [f"hessian.{f}" for f in tracer.HESSIAN_FUNCTIONS]
    + list(tracer.CLI_PARSE + tracer.CLI_WRITE)
    + [f"sobolev_circle.{f}" for f in tracer.PRIVATE["sobolev_circle"]],
)
def test_traced_function_resolves(qualified):
    fn = _resolve(qualified)
    # the tracer wraps only functions defined in the module that holds them
    assert inspect.isfunction(fn) and f"{fn.__module__}.{fn.__name__}" == f"scalehilbert.{qualified}"


@pytest.mark.parametrize("qualified", [f"{m}.{c}" for m, names in tracer.CONSTRUCTORS.items() for c in names])
def test_traced_constructor_resolves(qualified):
    assert inspect.isclass(_resolve(qualified))


def test_resolvent_binding_is_shared():
    assert cli.resolvent is verify.resolvent is hessian.resolvent
