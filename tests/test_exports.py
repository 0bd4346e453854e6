"""Public names: every module's __all__ and every top-level export of
rbmq resolve, so a deletion cannot leave a stale export behind, and
README's list of top-level exports is the package's.  The public values
a caller may set but need not are pinned, so a new one shows as a diff,
and no module reads the environment, so no setting can hide there.
Only `_points` starts threads, so the thread policy has one owner."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import rbmq
from rbmq import oracle

MODULES = sorted(m.name for m in pkgutil.iter_modules(rbmq.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"


def _top_level_exports() -> dict:
    return {
        sym: obj
        for sym, obj in vars(rbmq).items()
        if not sym.startswith("_") and not inspect.ismodule(obj)
    }


def test_every_module_all_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"rbmq.{name}")
        exported = getattr(mod, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing = [sym for sym in exported if not hasattr(mod, sym)]
        assert not missing, (name, missing)


def test_every_top_level_export_is_public_in_its_module():
    exports = _top_level_exports()
    assert exports
    for sym, obj in exports.items():
        mod = importlib.import_module(obj.__module__)
        assert sym in mod.__all__, (sym, mod.__name__)
        assert getattr(mod, sym) is obj


def test_readme_export_list_matches_package():
    # the bullet list after "Top-level exports of `rbmq`, by module:",
    # one "- `module`: `name`, ..." item per module, up to a blank line
    text = README.read_text(encoding="utf-8")
    section = text.split("Top-level exports of `rbmq`, by module:\n\n", 1)[1]
    section = section.split("\n\n", 1)[0]
    listed = {}
    for item in re.split(r"^- ", section, flags=re.M)[1:]:
        module, names = item.split(":", 1)
        listed[module.strip("` ")] = set(re.findall(r"`(\w+)`", names))
    actual = defaultdict(set)
    for sym, obj in _top_level_exports().items():
        actual[obj.__module__.rsplit(".", 1)[1]].add(sym)
    assert listed == dict(actual)


def test_public_settable_values():
    # defaulted parameters of every public function, with cli.main's argv
    # left out, plus the simulator settings; the defaults of result
    # records (AsymptoticReport.c1/c2, CheckResult.detail) are not settings
    found = set()
    for name in MODULES:
        mod = importlib.import_module(f"rbmq.{name}")
        for sym in getattr(mod, "__all__", ()):
            obj = getattr(mod, sym)
            if not inspect.isfunction(obj) or (name, sym) == ("cli", "main"):
                continue
            for par in inspect.signature(obj).parameters.values():
                if par.default is not inspect.Parameter.empty:
                    found.add(f"{name}.{sym}({par.name})")
    for field in dataclasses.fields(oracle.SimConfig):
        if field.default is not dataclasses.MISSING:
            found.add(f"oracle.SimConfig.{field.name}")
    assert found == {
        "checks.run_checks(seed)",
        "checks.cone_points(max_log_radius)",
        "oracle.simulate(cfg)",
        "oracle.SimConfig.step",
        "oracle.SimConfig.horizon",
        "oracle.SimConfig.burn_in",
        "oracle.SimConfig.seed",
        "oracle.SimConfig.batches",
    }


def test_no_module_reads_the_environment():
    env = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(rbmq.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not used & env, (path.name, used & env)


def test_only_points_imports_threads():
    for path in sorted(Path(rbmq.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        threads = imported & {"concurrent", "threading"}
        assert not threads or path.name == "_points.py", (path.name, threads)
