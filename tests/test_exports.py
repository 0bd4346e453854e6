"""Public names: every module's __all__ and every top-level export of
rbmq resolve, so a deletion cannot leave a stale export behind."""
import importlib
import inspect
import pkgutil

import rbmq

MODULES = sorted(m.name for m in pkgutil.iter_modules(rbmq.__path__))


def test_every_module_all_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"rbmq.{name}")
        exported = getattr(mod, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing = [sym for sym in exported if not hasattr(mod, sym)]
        assert not missing, (name, missing)


def test_every_top_level_export_is_public_in_its_module():
    exports = {
        sym: obj
        for sym, obj in vars(rbmq).items()
        if not sym.startswith("_") and not inspect.ismodule(obj)
    }
    assert exports
    for sym, obj in exports.items():
        mod = importlib.import_module(obj.__module__)
        assert sym in mod.__all__, (sym, mod.__name__)
        assert getattr(mod, sym) is obj
