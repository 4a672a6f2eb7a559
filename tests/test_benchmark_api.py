"""The names the benchmark in perfbench/ reads from bechain.

The benchmark calls the package only through ``lib.<name>`` attributes, and
its tracer names each span ``<module>.<name>`` after the defining module.  A
name that is deleted makes every benchmark run fail; a function that moves to
another module makes its per-layer metric read zero without any error.  The
benchmark's files are parsed, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

import bechain

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lib_names() -> set[str]:
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lib"
    }


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


def test_every_layer_function_resolves_to_its_module():
    layers = _layer_functions()
    assert layers
    for dotted in layers:
        module, name = dotted.split(".")
        obj = getattr(importlib.import_module(f"bechain.{module}"), name)
        assert obj is getattr(bechain, name), dotted
        # the tracer names the span after the defining module
        assert obj.__module__ == f"bechain.{module}", dotted
