"""The names the benchmark in perfbench/ reads from bechain.

The benchmark calls the package only through ``lib.<name>`` attributes, and
its tracer names each span ``<module>.<name>`` after the defining module.  A
name that is deleted, or a parameter the benchmark passes that is removed,
makes every benchmark run fail; a function that moves to another module makes
its per-layer metric read zero without any error.  The benchmark's files are
parsed, never imported or edited.
"""

import ast
import importlib
import inspect
from pathlib import Path

import bechain

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_lib_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    )


def _workload_nodes() -> list[ast.AST]:
    return list(ast.walk(ast.parse((_PERFBENCH / "workloads.py").read_text())))


def _lib_names() -> set[str]:
    return {node.attr for node in _workload_nodes() if _is_lib_attribute(node)}


def _lib_calls() -> list[ast.Call]:
    return [
        node
        for node in _workload_nodes()
        if isinstance(node, ast.Call) and _is_lib_attribute(node.func)
    ]


def _layer_functions() -> tuple[str, ...]:
    tree = ast.parse((_PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


def test_every_lib_name_in_workloads_exists():
    names = _lib_names()
    assert len(names) > 10  # the parse found the workloads' calls
    missing = sorted(name for name in names if not hasattr(bechain, name))
    assert not missing, f"perfbench/workloads.py reads missing names: {missing}"


def test_every_lib_call_in_workloads_binds():
    calls = _lib_calls()
    assert len(calls) > 10  # the parse found the workloads' calls
    for call in calls:
        name = call.func.attr
        where = f"perfbench/workloads.py:{call.lineno} lib.{name}"
        # starred arguments have no count the parse can see
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        sig = inspect.signature(getattr(bechain, name))
        try:
            sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where} does not match {name}{sig}: {exc}") from None


def test_every_layer_function_resolves_to_its_module():
    layers = _layer_functions()
    assert layers
    for dotted in layers:
        module, name = dotted.split(".")
        obj = getattr(importlib.import_module(f"bechain.{module}"), name)
        assert obj is getattr(bechain, name), dotted
        # the tracer names the span after the defining module
        assert obj.__module__ == f"bechain.{module}", dotted
