"""Every name the benchmark reaches in expsumlab resolves.

``perfbench/tracer.py`` wraps its ``TARGETS`` by name and
``perfbench/workloads.py`` calls module attributes directly, so a deleted or
renamed function would otherwise surface only in a traced benchmark run.
Both files are read as they are, not copied.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("expsum", "lattice", "majorant", "moments", "processes")


def resolve(dotted: str):
    """The object at "<module>.<attribute path>" inside expsumlab."""
    module, *path = dotted.split(".")
    owner = importlib.import_module(f"expsumlab.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    return owner


def tracer_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TARGETS)


def workload_attributes() -> list[str]:
    """Every dotted chain ``<module>.<attr>[.<attr>...]`` in workloads.py over the imported modules."""
    found = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in MODULES:
            found.add(".".join([node.id, *reversed(path)]))
    return sorted(found)


def test_names_were_found():
    assert len(tracer_targets()) >= 20
    assert "processes.sample_poisson_path" in workload_attributes()


@pytest.mark.parametrize("name", tracer_targets())
def test_tracer_target_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("name", workload_attributes())
def test_workload_attribute_resolves(name):
    resolve(name)
