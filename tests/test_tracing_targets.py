"""The benchmark tracer wraps keymark callables by name (benchmarks/tracing.py,
`TARGETS`); a refactor that drops or moves one of them breaks `--trace 1`.
These tests resolve every name the way `Tracer.install` does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "module_name, attr",
    [target[:2] for target in TARGETS],
    ids=[f"{module_name}:{attr}" for module_name, attr, *_ in TARGETS],
)
def test_traced_name_resolves(module_name: str, attr: str) -> None:
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module_name}.{attr} is not defined on its owner"
    assert callable(owner.__dict__[leaf])
