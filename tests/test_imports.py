"""Every imported name is referenced: a stdlib-ast scan of the sources.

No linter is installed, so this is the only check of its kind.  It skips
`__init__.py`, whose imports are re-exports, and `from __future__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/varseg", "tests", "perfbench")


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
