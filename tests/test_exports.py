"""The public names of the package: every `__all__` entry resolves, and `vortexlab`
re-exports only names from those lists."""

import importlib
import pkgutil
from types import ModuleType

import vortexlab


def test_public_names_resolve_and_package_reexports_only_them():
    listed = {}
    for info in pkgutil.iter_modules(vortexlab.__path__):
        module = importlib.import_module(f"vortexlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"vortexlab.{info.name}.__all__ lists missing {name}"
            listed.setdefault(name, []).append(getattr(module, name))
    exported = {name: value for name, value in vars(vortexlab).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported
    for name, value in exported.items():
        assert any(value is obj for obj in listed.get(name, ())), f"vortexlab.{name} is in no module's __all__"
