"""The package exports only what something outside its unit tests reaches,
and keeps no private helper that nothing in it reads.

A public name counts as used when it is read as an identifier (assigning it
is no use), an attribute or an imported name in a package module other than
__init__.py, in the acceptance suite, in the README's quick start, or in the
benchmark, whose tracer names its targets as strings.  Prose does not count:
a docstring that says "log-negativity" is no use of a function called
negativity.
"""

import ast
import re
from pathlib import Path

import coupledwg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coupledwg"


def _references(source: str, strings: bool = False) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_every_public_name_has_a_user():
    (quick_start,) = re.findall(r"```python\n(.*?)```", _read(ROOT / "README.md"), re.S)
    sources = [_read(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    sources += [_read(ROOT / "tests" / "test_acceptance.py"), quick_start]
    used = set().union(*map(_references, sources),
                       *(_references(_read(path), strings=True)
                         for path in sorted((ROOT / "perfbench").glob("*.py"))))
    assert sorted(set(coupledwg.__all__) - used) == []


def test_all_lists_what_the_package_imports():
    tree = ast.parse(_read(PACKAGE / "__init__.py"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(coupledwg.__all__) == sorted(n for n in imported if not n.startswith("_"))


def test_every_private_helper_has_a_caller():
    # every module-level _name (function, class or constant) is read by some
    # package module; tests do not count
    sources = [_read(path) for path in sorted(PACKAGE.glob("*.py"))]
    defined = set()
    for node in (node for source in sources for node in ast.parse(source).body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private and sorted(private - set().union(*map(_references, sources))) == []
