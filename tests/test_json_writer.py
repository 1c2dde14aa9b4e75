"""cli.py is the one module in src that writes JSON: every report hands the
CLI a plain dict (``as_dict``), and ``cli._emit`` alone dumps it, so the
output format, and what may appear in it, is decided in one place."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"


def _json_imports(tree):
    """Line of each import of the json module in tree, in any form."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.module == "json"
                      and not node.level))


def test_only_cli_imports_json():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if _json_imports(ast.parse(path.read_text(encoding="utf-8")))] == ["cli.py"]


def test_no_report_renders_itself():
    assert not [path.name for path in sorted(SRC.glob("*.py"))
                if "def to_json" in path.read_text(encoding="utf-8")]


def test_json_import_finder_sees_each_form():
    src = ("import json\n"
           "def f():\n    import json as j\n    return j\n"
           "from json import dumps\n"
           "import os, json\n")
    assert _json_imports(ast.parse(src)) == [1, 3, 5, 6]
    assert not _json_imports(ast.parse("import jsonschema\nfrom .json import x\n"
                                       "json = None\n"))
