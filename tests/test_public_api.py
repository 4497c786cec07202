"""Each module's __all__ lists exactly the public functions and classes it defines."""

import importlib
import inspect

import pytest

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
