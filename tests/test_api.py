"""The public API is declared once: each module's __all__ is what `from irrevkit import ...` gives."""

import types

import irrevkit
from irrevkit import comb, errors, fixtures, irrev, oracles, otoc, qcore, serialize, way

MODULES = (qcore, irrev, comb, oracles, way, otoc, serialize, fixtures)
ERROR_CLASSES = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)}


def test_every_declared_name_is_the_same_object_at_the_top_level():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(irrevkit, name, None) is getattr(mod, name), f"{mod.__name__}.{name}"
    for name in ERROR_CLASSES:
        assert getattr(irrevkit, name) is getattr(errors, name), name


def test_every_public_top_level_name_is_declared():
    declared = {n for mod in MODULES for n in mod.__all__} | ERROR_CLASSES
    for name in dir(irrevkit):
        value = getattr(irrevkit, name)
        submodule = isinstance(value, types.ModuleType) and value.__name__ == f"irrevkit.{name}"
        assert name.startswith("_") or submodule or name in declared, name
