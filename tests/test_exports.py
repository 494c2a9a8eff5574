import importlib
import pkgutil

import rwtv


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks `import *`
    modules = [rwtv] + [
        importlib.import_module(f"rwtv.{m.name}")
        for m in pkgutil.iter_modules(rwtv.__path__)
        if m.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 5
    assert missing == []
