"""The names of the package: every `__all__` entry resolves, `vortexlab` re-exports
only names from those lists, and every module-level private name is read by the
library itself."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path
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


def reads(node) -> Counter:
    """The names read under an AST node: loaded names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_private_name_is_read_by_the_library():
    # a module-level _function, _Class or _CONSTANT that no library code reads, outside
    # its own definition, is kept only for the tests
    total, definitions = Counter(), []
    for path in sorted(Path(vortexlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
            else:
                names = []
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            definitions += [(path.name, name, node) for name in private]
    assert definitions
    unread = [f"{module}: {name}" for module, name, node in definitions if total[name] - reads(node)[name] <= 0]
    assert not unread, f"private names no library code reads: {unread}"
