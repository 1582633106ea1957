"""No module of the package imports a name it never uses or imports
`dataclasses`, no private helper is left without a reader, no public
name is left without a caller, no defaulted parameter of a public
function is left unpassed, a serial run loads no process-pool or
`secrets` machinery, a classic run loads neither the share layer (field,
shamir, threshold_randao) nor `json`, and no run loads `dataclasses` or
`inspect`.

A stdlib stand-in for a linter's unused-import rule: every name bound by
a module-level import in src/randaolab/*.py (bar __init__.py, which
imports to re-export) must be read somewhere in that module.  Every
module-level private name (`_x`, not dunder) defined there must be read
somewhere in the package, as a name or as an attribute.  Every public
function and class defined there must be read the same way, and every
public method and property as an attribute, by the package (re-exports
do not count) or by the benchmark, bar a short REFERENCE_ONLY list.
Every parameter with a default of such a function must be passed, by
position or by keyword, by a call in those same callers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Optional

import pytest

import randaolab

PACKAGE = sorted(Path(randaolab.__file__).parent.glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Optional, Sequence\n"
        "x: Optional[int] = js.loads('1')\n"
    )
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def read_names(sources: Iterable[str]) -> tuple[set[str], set[str]]:
    """The names `sources` read as a bare name, and as an attribute."""
    names, attributes = set(), set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level private name of `sources`
    (module name -> source) that no module reads."""
    read = set.union(*read_names(sources.values()))
    return sorted(
        f"{module}:{name}"
        for module, text in sources.items()
        for name in _private_definitions(ast.parse(text)) - read
    )


def test_checker_flags_unread_private_names():
    sources = {
        "a": (
            "_used = 1\n"
            "_orphan: int = 2\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    _local = _used\n"
            "    return _local\n"
            "class _Kept:\n"
            "    def _method(self): ...\n"
        ),
        "b": "import a\nfrom a import _Kept\nx = (_Kept(), a._used)\n",
    }
    assert unread_private_names(sources) == ["a:_helper", "a:_orphan"]


def test_package_has_no_unread_private_names():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE
    }
    assert unread_private_names(sources) == []


# Public names with no caller in the package or the benchmark, kept on
# purpose; one line of reason each.
REFERENCE_ONLY = {
    # The "fewer than n shares reveal nothing" demonstration of the
    # sharing scheme, which the tests and the acceptance suite check.
    "shamir:secrecy_probe",
}

BENCHMARK = sorted(
    (Path(__file__).parent.parent / "perfbench").glob("*.py")
)


def _public_definitions(tree: ast.Module) -> set[str]:
    """Module-level public functions and classes, and the public
    methods and properties of those classes, as `name` or
    `Class.name`."""
    names = set()
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or node.name.startswith("_"):
            continue
        names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not member.name.startswith("_")
            )
    return names


def unread_public_names(
    sources: dict[str, str], readers: Iterable[str]
) -> list[str]:
    """`module:name` for each public function or class of `sources`
    (module name -> source) that no source of `readers` reads, as a
    name or as an attribute, and each public method or property that
    none reads as an attribute."""
    names, attributes = read_names(readers)
    return sorted(
        f"{module}:{name}"
        for module, text in sources.items()
        for name in _public_definitions(ast.parse(text))
        if name.rpartition(".")[2]
        not in (attributes if "." in name else names | attributes)
    )


def test_checker_flags_unread_public_names():
    sources = {
        "a": (
            "def used(): ...\n"
            "def orphan(): ...\n"
            "def _private(): ...\n"
            "CONSTANT = 1\n"
            "class Kept:\n"
            "    def method(self): ...\n"
            "    @property\n"
            "    def unread(self): ...\n"
            "    def __len__(self): ...\n"
        ),
        "b": "from a import Kept\nx = (Kept().method(), used)\n",
    }
    readers = [sources["b"]]
    assert unread_public_names(sources, readers) == [
        "a:Kept.unread", "a:orphan"
    ]
    # A re-export is an import, not a read.
    reexport = "from a import orphan\n__all__ = ['orphan']\n"
    assert "a:orphan" in unread_public_names(sources, readers + [reexport])


def test_checker_reads_a_method_through_attributes_only():
    # A local variable that shares a method's name does not read it.
    sources = {
        "a": "class Kept:\n    def add(self): ...\n",
        "b": "from a import Kept\nadd = 1\nx = (Kept, add)\n",
    }
    assert unread_public_names(sources, [sources["b"]]) == ["a:Kept.add"]
    called = sources["b"] + "y = Kept().add()\n"
    assert unread_public_names(sources, [called]) == []


def test_every_public_name_has_a_caller():
    # Callers are the package's modules, bar __init__.py, which only
    # re-exports, and the benchmark's modules.
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE
    }
    readers = [
        path.read_text(encoding="utf-8") for path in SOURCES + BENCHMARK
    ]
    assert unread_public_names(sources, readers) == sorted(REFERENCE_ONLY)


def _defaulted_parameters(
    tree: ast.Module,
) -> Iterable[tuple[str, str, Optional[int]]]:
    """(function, parameter, position) for each parameter with a default
    of each module-level public function; keyword-only ones have no
    position."""
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def unpassed_defaults(
    sources: dict[str, str], readers: Iterable[str]
) -> list[str]:
    """`module:function(parameter)` for each defaulted parameter of a
    public function of `sources` that no call in `readers` passes, by
    position or by keyword.  Calls match by bare name, as a function or
    as an attribute; a `*` argument may pass any position and a `**`
    argument any keyword."""
    calls: dict[str, list[tuple[float, set[Optional[str]]]]] = {}
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None
            )
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                float("inf") if starred else len(node.args),
                {keyword.arg for keyword in node.keywords},
            ))
    return sorted(
        f"{module}:{function}({parameter})"
        for module, text in sources.items()
        for function, parameter, index in _defaulted_parameters(
            ast.parse(text)
        )
        if not any(
            (index is not None and index < positional)
            or parameter in keywords
            or None in keywords
            for positional, keywords in calls.get(function, ())
        )
    )


def test_checker_flags_unpassed_defaults():
    sources = {
        "a": (
            "def f(a, b=1, c=2, *, d=3, e=4): ...\n"
            "def g(x=1, *, y=2): ...\n"
            "def h(z=1): ...\n"
            "def _private(w=1): ...\n"
        ),
    }
    readers = [
        "import a\n"
        "a.f(0, 1, e=5)\n"
        "g(*args)\n"
        "h(**options)\n"
    ]
    assert unpassed_defaults(sources, readers) == [
        "a:f(c)", "a:f(d)", "a:g(y)"
    ]
    assert unpassed_defaults(sources, []) == [
        "a:f(b)", "a:f(c)", "a:f(d)", "a:f(e)", "a:g(x)", "a:g(y)",
        "a:h(z)",
    ]


def test_every_default_is_passed_by_some_caller():
    # A parameter no caller passes serves only the tests: its default is
    # the one value the program runs.  Callers are as for public names.
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE
    }
    readers = [
        path.read_text(encoding="utf-8") for path in SOURCES + BENCHMARK
    ]
    assert unpassed_defaults(sources, readers) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of every module `source` imports, at any depth."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_no_module_imports_dataclasses():
    # The records are validated NamedTuples; see tests/test_records.py.
    assert imported_modules(
        "def f():\n    from dataclasses import field\n"
    ) == {"dataclasses"}
    importers = [
        path.name for path in PACKAGE
        if "dataclasses" in imported_modules(path.read_text("utf-8"))
    ]
    assert importers == []


# Modules a serial run must never load: the process pool's tree and the
# `secrets` module the default Shamir entropy no longer needs.
SERIAL_ABSENT = ("concurrent.futures.process", "multiprocessing", "secrets")

# Modules a classic run must never load: the share layer, `json`, which
# only a JSON report needs, and `dataclasses` with the `inspect` tree it
# imports, which no run needs.
SHARE_LAYER = (
    "randaolab.field",
    "randaolab.shamir",
    "randaolab.threshold_randao",
)
DATACLASSES = ("dataclasses", "inspect")
CLASSIC_ABSENT = SHARE_LAYER + ("json",) + DATACLASSES

SRC = str(Path(randaolab.__file__).parent.parent)
CLASSIC_SCENARIO = (
    Path(__file__).parent.parent / "perfbench" / "scenarios"
    / "classic-default.ini"
)

SETUP_SCRIPT = """
import sys
import randaolab, randaolab.cli
randaolab.load_scenario(sys.argv[1])
print(" ".join(m for m in {modules!r} if m in sys.modules))
"""

RUN_SCRIPT = """
import io, os, sys
import randaolab, randaolab.cli
from randaolab.harness import emit, run_scenario
from randaolab.scenario import load_scenario

os.cpu_count = lambda: 2  # let workers=2 open a pool on any machine
cfg = load_scenario(overrides=dict(protocol=sys.argv[2], epochs=2,
                                   validator_count=40))
emit(run_scenario(cfg, workers=int(sys.argv[1])), sys.argv[3], io.StringIO())
print(" ".join(m for m in {modules!r} if m in sys.modules))
"""


def run_fresh(script: str, *args: str) -> str:
    """stdout of `script` in a fresh interpreter that imports this
    checkout's randaolab."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return result.stdout


def loaded_after_run(
    workers: int,
    protocol: str = "sss",
    fmt: str = "csv",
    modules: tuple[str, ...] = SERIAL_ABSENT,
) -> list[str]:
    """Which of `modules` a fresh interpreter holds after importing the
    CLI and running and emitting a 2-epoch scenario."""
    script = RUN_SCRIPT.format(modules=modules)
    return run_fresh(script, str(workers), protocol, fmt).split()


def test_serial_run_loads_no_pool_or_secrets():
    assert loaded_after_run(workers=1) == []


def test_parallel_run_loads_the_pool():
    # The guard above can fail: a pooled run does load the pool module.
    assert "concurrent.futures.process" in loaded_after_run(workers=2)


def test_cli_import_and_scenario_load_skip_share_layer_and_json():
    script = SETUP_SCRIPT.format(modules=CLASSIC_ABSENT)
    assert run_fresh(script, str(CLASSIC_SCENARIO)).split() == []


def test_classic_run_loads_no_share_layer_or_json():
    loaded = loaded_after_run(1, "classic", "csv", CLASSIC_ABSENT)
    assert loaded == []


def test_sss_run_and_json_report_load_what_they_use():
    # The guards above can fail: an sss run loads the share layer, and
    # only it; a JSON report loads json.
    assert loaded_after_run(1, "sss", "csv", CLASSIC_ABSENT) == list(
        SHARE_LAYER
    )
    assert loaded_after_run(1, "classic", "json", CLASSIC_ABSENT) == ["json"]


POOLED_SWEEP_SCRIPT = """
import io, os, sys
from randaolab.harness import emit, sweep
from randaolab.scenario import ScenarioConfig

os.cpu_count = lambda: 2
base = ScenarioConfig(epochs=3, validator_count=40)
axes = [("protocol", ["classic", "sss"]), ("rng_seed", [1, 2])]
cold = [m for m in {modules!r} if m in sys.modules]
reports = {{}}
for workers in (2, 1):
    out = io.StringIO()
    emit(sweep(base, axes, workers=workers), "csv", out)
    reports[workers] = out.getvalue()
print(len(cold), reports[2] == reports[1], reports[1].count("\\n"))
"""


def test_pooled_sss_sweep_from_cold_interpreter_matches_serial():
    # Workers forked before the share layer is loaded import it on their
    # first sss trial; the report must not change.
    script = POOLED_SWEEP_SCRIPT.format(modules=SHARE_LAYER)
    assert run_fresh(script).split() == ["0", "True", "5"]
