"""The package's public API: ``quasiortho`` re-exports each module's
``__all__``, and the benchmark tracer finds every function it wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import quasiortho
from quasiortho import (decoherence, effective_dim, limits, overlap, packing,
                        rng, states)

ROOT = Path(__file__).resolve().parents[1]
MODULES = (rng, states, overlap, packing, decoherence, effective_dim)


def test_all_is_version_resource_error_and_each_modules_all():
    expected = ["__version__", "ResourceLimitError"]
    for module in MODULES:
        expected += module.__all__
    assert quasiortho.__all__ == expected
    assert len(set(quasiortho.__all__)) == len(quasiortho.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_modules_object(module):
    for name in module.__all__:
        assert getattr(quasiortho, name) is getattr(module, name), name


def test_resource_error_is_limits_object():
    assert quasiortho.ResourceLimitError is limits.ResourceLimitError


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quasiortho import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(quasiortho.__all__)


def test_version_is_one_literal_read_from_the_package():
    # setuptools reads a literal assignment without importing the package
    init = ast.parse((ROOT / "src" / "quasiortho" / "__init__.py").read_text())
    literals = [node.value.value for node in init.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and any(getattr(t, "id", None) == "__version__"
                        for t in node.targets)]
    assert literals == [quasiortho.__version__]
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "quasiortho.__version__"}


def test_every_tracer_target_resolves():
    # the tracer imports only the standard library, so loading it by path
    # runs no benchmark code
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for span, (module_name, path) in tracer.TARGETS.items():
        module = importlib.import_module(module_name)
        if "." in path:  # a method, looked up on its class as install does
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), span
        else:
            assert callable(getattr(module, path)), span
