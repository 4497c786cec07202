"""Each module's __all__ lists exactly the public functions and classes it
defines, and the package re-exports the engine modules' names and no others."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sortbatch

MODULES = ["corpus", "batcher", "cost", "diagnostics", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_functions_and_classes_defined_here(name):
    module = importlib.import_module(f"sortbatch.{name}")
    assert all(hasattr(module, attr) for attr in module.__all__)
    listed = {
        attr for attr in module.__all__
        if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
    }
    defined = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    # A name imported from another module and left in __all__ is listed but not defined.
    assert listed == defined


ENGINE = ["batcher", "corpus", "cost", "diagnostics"]


def test_package_all_is_version_plus_the_engine_modules_all():
    expected = ["__version__"]
    for name in ENGINE:
        expected += importlib.import_module(f"sortbatch.{name}").__all__
    assert sortbatch.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", ENGINE)
def test_package_names_are_the_modules_objects(name):
    module = importlib.import_module(f"sortbatch.{name}")
    for attr in module.__all__:
        assert getattr(sortbatch, attr) is getattr(module, attr), attr


def test_import_sortbatch_loads_neither_cli_nor_argparse():
    """The CLI stays out of the package: `import sortbatch` is part of the
    benchmark's set-up time, which must not pay for argparse."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sortbatch, sys; print(sorted({'sortbatch.cli', 'argparse'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
