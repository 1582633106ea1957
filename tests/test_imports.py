"""No module of the package imports a name it never uses, no private
helper is left without a reader, a serial run loads no process-pool or
`secrets` machinery, and a classic run loads neither the share layer
(field, shamir, threshold_randao) nor `json`.

A stdlib stand-in for a linter's unused-import rule: every name bound by
a module-level import in src/randaolab/*.py (bar __init__.py, which
imports to re-export) must be read somewhere in that module.  Every
module-level private name (`_x`, not dunder) defined there must be read
somewhere in the package, as a name or as an attribute.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level private name of `sources`
    (module name -> source) that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree) - read
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


# Modules a serial run must never load: the process pool's tree and the
# `secrets` module the default Shamir entropy no longer needs.
SERIAL_ABSENT = ("concurrent.futures.process", "multiprocessing", "secrets")

# Modules a classic run must never load: the share layer, and `json`,
# which only a JSON report needs.
SHARE_LAYER = (
    "randaolab.field",
    "randaolab.shamir",
    "randaolab.threshold_randao",
)
CLASSIC_ABSENT = SHARE_LAYER + ("json",)

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
    # The guards above can fail: an sss run loads the share layer, and a
    # JSON report loads json.
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
