"""Public names: every module's __all__ and every top-level export of
rbmq resolve, so a deletion cannot leave a stale export behind, and
README's list of top-level exports is the package's.  Every public name
has a caller outside the tests, and README's python block runs.  The
public values a caller may set but need not, and the fields of every
public record, are pinned, so a new one shows as a diff, and no module
reads the environment, so no setting can hide there.  Only `_points`
starts threads, so the thread policy has one owner."""
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
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def _readme_python() -> list:
    """The python code blocks of README."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _names_used(source: str) -> set:
    """Every name and attribute that source reads, calls or sets."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_public_name_has_a_caller():
    # a caller is package code (not the re-exports of __init__.py),
    # README's python block or the benchmark, which this only reads
    package = [p for p in Path(rbmq.__path__[0]).glob("*.py") if p.name != "__init__.py"]
    sources = [p.read_text(encoding="utf-8") for p in package + sorted(ROOT.glob("bench/*.py"))]
    used = set().union(*map(_names_used, sources + _readme_python()))
    orphans = [
        f"{name}.{sym}"
        for name in MODULES
        for sym in getattr(importlib.import_module(f"rbmq.{name}"), "__all__", ())
        if sym not in used
    ]
    assert not orphans


def test_readme_python_block_runs():
    (block,) = _readme_python()
    exec(compile(block, str(README), "exec"), {})


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


def test_public_record_fields():
    # the constructor fields of every public dataclass, an alias such as
    # make_bundle under its class, so an added or removed field shows
    found = {}
    for name in MODULES:
        mod = importlib.import_module(f"rbmq.{name}")
        for sym in getattr(mod, "__all__", ()):
            obj = getattr(mod, sym)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                fields = tuple(f.name for f in dataclasses.fields(obj) if f.init)
                found[f"{name}.{obj.__name__}"] = fields
    assert found == {
        "asymptotics.AsymptoticReport": (
            "regime", "decay_rate", "power", "constant", "pole_location",
            "theta1_at_theta2_plus", "c1", "c2",
        ),
        "checks.CheckResult": ("name", "residual", "tol", "detail"),
        "kernel.HyperbolaR": ("cx2", "cy2", "cx", "rhs", "apex", "degenerate"),
        "model.ModelParams": ("sigma", "mu"),
        "model.DerivedScalars": (
            "beta", "theta1_minus", "theta1_plus", "theta2_minus", "theta2_plus",
        ),
        "oracle.SimConfig": ("step", "horizon", "burn_in", "seed", "batches"),
        "oracle.SimResult": (
            "laplace_estimates", "local_time_rates", "marginal_histograms",
            "boundary_histograms", "measured_time", "config",
        ),
        "oracle.DensityTable": ("grid", "values"),
        "oracle.DiagonalClosedForms": ("params",),
        "transform.TransformBundle": ("params",),
        "uniformization.GroupReport": ("finite", "order", "p", "q", "residual", "note"),
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
