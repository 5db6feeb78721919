"""The library holds only code that the commands or the benchmark run.

Every top-level function and class in src/bhe must be used as a name or an
attribute somewhere in src/bhe or bhebench, outside its own definition, and
every non-dunder method or property must be used there as an attribute.
Imports, strings, docstrings and ``__all__`` lists are not uses: a name that
only tests reach does not belong in the library.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "bhe"
BENCHMARK = ROOT / "bhebench"


def _modules(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _uses(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each name, and each attribute, occurs in the code under node."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(module: ast.Module):
    """(qualified name, node, is_method) of each top-level def and class and each non-dunder method."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member, True


def unused_definitions() -> list[str]:
    library = _modules(LIBRARY)
    names, attrs = Counter(), Counter()
    for module in [*library.values(), *_modules(BENCHMARK).values()]:
        n, a = _uses(module)
        names += n
        attrs += a
    unused = []
    for stem, module in library.items():
        for qualname, node, is_method in _definitions(module):
            own_names, own_attrs = _uses(node)
            outside = attrs[node.name] - own_attrs[node.name]
            if not is_method:
                outside += names[node.name] - own_names[node.name]
            if outside <= 0:
                unused.append(f"{stem}.{qualname}")
    return unused


def test_every_library_definition_is_used_by_the_library_or_the_benchmark():
    assert unused_definitions() == []


def test_set_up_imports_no_solver_code():
    # a fresh process that loads the catalog pays for no solver, toric or cli import
    code = ("import sys, bhe; from bhe import catalog; catalog.load_catalog(); "
            "print(' '.join(m for m in ('bhe.solver', 'bhe.toric', 'bhe.cli') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(LIBRARY.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == ""
