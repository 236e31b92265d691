"""What the benchmark in `perfbench/` needs of gptkit, read from its sources.

`perfbench/workloads.py` calls gptkit by attribute (`cli.main`,
`composites.in_max_tensor`, ...), and `perfbench/tracer.py` binds the
arguments of a few traced functions by parameter name.  A gptkit function
renamed or deleted under either makes every run of a workload fail, or the
traced run crash, so the sources are parsed here, not executed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _workload_attributes() -> set[tuple[str, str]]:
    tree = _tree("workloads.py")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gptkit"
        for alias in node.names
    }
    assert imported == {"cli", "composites", "zoo"}
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
    }


def _hook_parameters() -> dict[str, set[str]]:
    """Traced function name -> the `bound["..."]` keys its hook reads."""
    tree = _tree("tracer.py")
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "EXTRA_HOOKS" for t in node.targets)
    )
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = {}
    for key, value in zip(hooks.keys, hooks.values):
        hook = functions[value.id]
        bound = hook.args.args[0].arg
        out[key.value] = {
            node.slice.value
            for node in ast.walk(hook)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == bound
        }
    return out


WORKLOAD_ATTRIBUTES = sorted(_workload_attributes())
HOOK_PARAMETERS = _hook_parameters()


def test_the_contract_is_found_in_the_sources():
    assert ("cli", "main") in WORKLOAD_ATTRIBUTES
    assert ("composites", "no_signalling_check") in WORKLOAD_ATTRIBUTES
    assert HOOK_PARAMETERS["lp.exact_linprog"] >= {"a_eq", "a_le", "c", "nonneg"}


@pytest.mark.parametrize("module, attr", WORKLOAD_ATTRIBUTES)
def test_every_gptkit_attribute_the_workloads_use_exists(module, attr):
    assert hasattr(importlib.import_module(f"gptkit.{module}"), attr)


@pytest.mark.parametrize("name", sorted(HOOK_PARAMETERS))
def test_every_traced_hook_finds_its_parameters(name):
    module, function = name.split(".")
    target = getattr(importlib.import_module(f"gptkit.{module}"), function)
    keys = HOOK_PARAMETERS[name]
    assert keys and keys <= set(inspect.signature(target).parameters)
