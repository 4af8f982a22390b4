"""Every name a package module imports is used in that module, no module reads another
module's private names beyond the pinned ones, importing the package loads no module
that only a parallel run needs, and no warning that an import raises keeps a failing
property from reporting its example."""

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


# The private names a module may read from another. P2's crash basis is the slack basis
# of P2's standard form with each TD's cheapest link in its access row, so
# `model.crash_basis` reads that form and ties the basis to it. A generic crash inside
# `lp`, which reads each program's EQ rows instead, cost up to 80 us more per root LP
# at 30x5 on a 2-core host, about 3% of a ladder-30x5 pass.
PRIVATE_READS = {"model.py": {"_standard_form", "_factor"}}


def foreign_private_names(source: str) -> list[str]:
    """`line: name` for each single-underscore name that `source` reads as an attribute,
    a call keyword or an import and does not itself define: another module's name."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            defined.add(node.id if isinstance(node, ast.Name) else node.attr)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads.add((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            reads.add((node.lineno, node.arg))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = [part for alias in node.names for part in alias.name.split(".")]
            module = getattr(node, "module", None) or ""  # a relative import has none
            reads.update((node.lineno, part) for part in parts + module.split("."))
    private = sorted(
        (line, name)
        for line, name in reads
        if name.startswith("_") and not name.startswith("__") and name not in defined
    )
    return [f"{line}: {name}" for line, name in private]


def test_guard_sees_a_foreign_private_name():
    source = "import a._b\nfrom c._d import _e\nx = f._g(_h=1)\nself._i = 2\nprint(self._i)\n"
    assert foreign_private_names(source) == ["1: _b", "2: _d", "2: _e", "3: _g", "3: _h"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    names = foreign_private_names(path.read_text(encoding="utf-8"))
    assert {entry.split(": ")[1] for entry in names} == PRIVATE_READS.get(path.name, set())


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


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports a module that warns; under the project's
    # warnings-as-errors that warning must not end the run in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n"
    )
    options = ["-c", str(PACKAGE.parent.parent / "pyproject.toml"), "-p", "no:cacheprovider"]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1 and "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
