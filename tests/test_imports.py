"""Every name a package module imports is used in that module, and importing the
package loads no module that only a parallel run needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dro_offload"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name that no expression in `source` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{line}: {name}" for line, name in unused]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["1: os", "2: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_and_load_config_leave_concurrent_futures_unloaded():
    # the pool, and with it concurrent.futures and logging, is imported only when jobs > 1;
    # SciPy is a test oracle only, and a run on the package loads none of it
    config = PACKAGE.parent.parent / "perfbench" / "configs" / "eval-binding.json"
    tiny = {"scenario": {"num_tds": 4, "num_uavs": 2}, "experiment": {"seeds": [1]}}
    code = (
        "import sys, dro_offload; dro_offload.load_config(sys.argv[1]); "
        "print('concurrent.futures' in sys.modules); "
        f"dro_offload.compare_methods(dro_offload.parse_config({tiny!r})); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(config)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n") == ["False", "[]", ""]
