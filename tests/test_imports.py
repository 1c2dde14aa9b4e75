"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cliquestats"}


def test_src_imports_only_stdlib_and_numpy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s: %s" % (path.name, name) for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert not found
