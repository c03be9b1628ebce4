"""Every imported name and private definition is referenced: stdlib-ast scans.

No linter is installed, so these are the only checks of their kind.  The
import scan skips `__init__.py`, whose imports are re-exports, and `from
__future__`.  The private-name scan covers the package alone: a
module-level function, class or constant named `_x` must be read
somewhere in `src/varseg`, so a helper or a cap that nothing reads any
more is caught (tests and perfbench may read private names, but they do
not keep one alive).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/varseg", "tests", "perfbench")
PACKAGE = ROOT / "src" / "varseg"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import xml.etree.ElementTree as ET\nfrom math import pi, tau\n"
              "ET.parse(pi)\n")
    assert unused_imports(source) == ["os", "tau"]


def test_no_unused_imports():
    found = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            names = unused_imports(path.read_text(encoding="utf-8"))
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names defined in sources and never read.

    sources maps module names to their source.  A private name starts with
    one underscore and is not a dunder; module m defines it by a
    module-level def, class or assignment.  It is read by a name load in m,
    a `from m import` elsewhere, or an attribute of that name anywhere, so
    a binding is checked per module: two modules' `_CAP` are two names.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                read.add(("*", node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source_module = node.module.split(".")[-1]
                read.update((source_module, a.name) for a in node.names)
    return [f"{module}.{name}" for module, name in defined
            if (module, name) not in read and ("*", name) not in read]


def test_scan_finds_an_unreferenced_private():
    sources = {"a": "_CAP = 3\n_LIMIT: int = 4\ndef _used(): return _CAP\n"
                    "def _dead(): pass\nclass _Gone: pass\n__all__ = []\n",
               "b": "from .a import _used\nimport a\na._LIMIT\n_CAP = 5\n"}
    assert unreferenced_privates(sources) == ["a._dead", "a._Gone", "b._CAP"]


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []
