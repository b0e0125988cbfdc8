"""Every module-level import in the package, the tests and the scripts is used.

A name bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in its module, or be listed in its ``__all__``.  Left out:
``from __future__`` imports, ``__init__.py`` files, whose imports are their
re-exports, and ``bench/``, which belongs to the benchmark.  And the package
itself loads no ``dataclasses``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/domminor", "tests", "scripts")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted(p for d in CHECKED for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert len(files) > 10
    assert [u for p in files for u in unused_imports(p)] == []


def test_cli_loads_no_dataclasses():
    # every hunt worker imports the package; dataclasses would load inspect
    # into each, and the value types are NamedTuples and plain classes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import domminor.cli, sys; assert 'dataclasses' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
