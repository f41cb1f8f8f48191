"""The package is dependency-free: src/rootparity imports only the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "rootparity"


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in the file, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: absolute_imports(f) for f in files}
    outside = {name: sorted(mods - sys.stdlib_module_names) for name, mods in found.items()}
    assert {name: mods for name, mods in outside.items() if mods} == {}
    # imports inside functions are seen too
    assert {"signal", "threading"} <= found["complexity.py"]
