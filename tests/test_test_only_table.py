"""README's table of paper statements reached only by tests stays true: each
`module.name` it lists exists in that module, and no src module refers to
it outside its own definition."""

import importlib
import pathlib

from ast_uses import src_uses

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _table_names():
    """The (module, name) of each row of the table under README's "reached
    only by tests" paragraph, read off its first column."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = text.split("are reached only by tests", 1)[1].split("\n\n", 2)[1].splitlines()
    cells = [row.split("|")[1].strip().strip("`") for row in rows[2:]]
    return [tuple(cell.split(".")) for cell in cells]


def test_table_lists_only_statements_no_src_module_reaches():
    names = _table_names()
    assert names and all(len(row) == 2 for row in names), names
    for owner, name in names:
        assert hasattr(importlib.import_module("cliquestats." + owner), name), (owner, name)
        found = ["%s:%d" % (module, u.line) for module, u in src_uses()
                 if not (module == owner and u.top == name)
                 and u.kind in ("name", "import") and u.name.split(".")[-1] == name]
        assert not found, (owner, name, found)
