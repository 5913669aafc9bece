"""The public surface: what the acceptance suite, the benchmark and the
fingerprint tool import keeps resolving, and ``ocmsim.__all__`` lists
exactly the public names."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import ocmsim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ocmsim"
CONSUMERS = [ROOT / "tests" / "test_acceptance.py",
             ROOT / "perfbench" / "worker.py",
             ROOT / "tools" / "fingerprint.py"]


def ocmsim_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every ``from ocmsim... import name`` in a file,
    function-level imports included."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "ocmsim"
            for alias in node.names]


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: p.name)
def test_consumer_imports_resolve(path):
    imports = ocmsim_imports(path)
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def public_table() -> dict[str, tuple[str, ...]]:
    """``ocmsim``'s table of modules and the public names each defines."""
    tree = ast.parse(Path(ocmsim.__file__).read_text())
    table, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["_PUBLIC"]]
    return ast.literal_eval(table)


def test_all_lists_exactly_the_public_names():
    names = [name for names in public_table().values() for name in names]
    public = {name for name in names if not name.startswith("_")
              and not isinstance(getattr(ocmsim, name), types.ModuleType)}
    assert len(ocmsim.__all__) == len(set(ocmsim.__all__)) == len(names)
    assert set(ocmsim.__all__) == public


def test_names_and_submodules_resolve_on_first_use():
    for module, names in public_table().items():
        for name in names:
            assert ocmsim.__getattr__(name) is getattr(
                importlib.import_module(f"ocmsim.{module}"), name)
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            assert ocmsim.__getattr__(path.stem) is \
                importlib.import_module(f"ocmsim.{path.stem}")
    assert set(ocmsim.__all__) <= set(dir(ocmsim))
    with pytest.raises(AttributeError, match="'ocmsim' has no attribute "
                                             "'no_such_name'"):
        ocmsim.no_such_name


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_module_reads_every_name_it_imports():
    """``__init__.py`` re-exports (the ``__all__`` test covers them) and
    the acceptance suite's imports are the public surface it checks."""
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    unused = {path.name: names for path in sorted(paths)
              if path.name not in ("__init__.py", "test_acceptance.py")
              and (names := unused_imports(path))}
    assert unused == {}


def test_run_config_builders_take_no_arguments():
    """A run is described by its configuration alone: no public
    ``RunConfig`` method but ``__getitem__`` takes a parameter."""
    tree = ast.parse((SRC / "config.py").read_text())
    cls, = [node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig"]
    taking = [node.name for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and ast.unparse(node.args) != "self"]
    assert taking == []


def from_dict_calls(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "from_dict" for node in ast.walk(tree))


def test_detector_records_are_parsed_only_by_read_events():
    """Every other consumer reads the stream's parsed ``DetectorConfig``."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    counts = {stem: from_dict_calls(tree) for stem, tree in trees.items()}
    assert {stem: n for stem, n in counts.items() if n} == {"events_io": 1}
    read_events, = [node for node in ast.walk(trees["events_io"])
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "read_events"]
    assert from_dict_calls(read_events) == 1


def test_no_module_imports_another_modules_private_names():
    private = [f"{path.name}: {node.module}.{alias.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def dotted_lookups() -> set[str]:
    """Every dotted string literal that ``src/ocmsim`` subscripts with."""
    return {node.slice.value
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str) and "." in node.slice.value}


def test_every_config_key_is_read_and_every_read_key_exists():
    """A schema key nothing reads selects nothing; a read key outside the
    schema could only fail at run time."""
    from ocmsim.config import SCHEMA

    schema = {path for path, _, _, _ in SCHEMA}
    lookups = dotted_lookups()
    assert sorted(schema - lookups) == []
    assert sorted(lookups - schema) == []


def test_only_the_pipeline_ends_import_the_monte_carlo_model():
    """The recording format and reconstruction stand without the sensor
    model: ``DetectorConfig`` lives with the records it bounds."""
    importers = {path.stem for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and (node.level, node.module)
                 in {(0, "ocmsim.detector"), (1, "detector")}}
    # the package entry point imports each module of its table on first use
    importers |= {"__init__"} if "detector" in public_table() else set()
    assert importers == {"cli", "config", "__init__"}
