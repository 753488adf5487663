import importlib
import pkgutil

import pytest

import transportlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(transportlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a name left in __all__ after its definition is deleted fails here, not
    # at a user's star import
    module = importlib.import_module(f"transportlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from transportlab.{name} import *", {})
