"""Every top-level def in src is reached, through the names that defs use,
from cli.main, from a module-level statement, or from a name or string in
perfbench's sources; and every method of a src class but a dunder has its
name used in src outside its own body, or in perfbench's sources.  A def
that only tests reach belongs in tests/reference.py."""

import ast

from ast_uses import SRC, reached, src_uses, uses

BENCH = SRC.parent.parent / "perfbench"


def unreached(found, names) -> set:
    """The top-level defs in found that main, the module-level statements and
    the given names do not reach."""
    defs = {u.name for u in found if u.kind == "def" and u.top is None}
    roots = {"main", *names, *(u.name for u in found if u.kind == "name" and u.top is None)}
    return defs - reached(found, roots)


def unused_methods(found, names) -> set:
    """The methods in found, dunders aside, whose name is neither one of names
    nor a name or dotted part of a string that found uses outside a def of
    that name."""
    methods = {u.name for u in found if u.kind == "def" and u.top and u.func is None
               and not (u.name.startswith("__") and u.name.endswith("__"))}
    used = {part for u in found if u.kind in ("name", "str") and u.func != u.name
            for part in u.name.split(".")}
    return methods - used - set(names)


def bench_names() -> set:
    """Each name, and each dotted part of each string, in perfbench's sources."""
    return {part for path in sorted(BENCH.glob("*.py"))
            for u in uses(ast.parse(path.read_text(encoding="utf-8")))
            if u.kind in ("name", "str") for part in u.name.split(".")}


def test_every_src_def_is_reached_from_a_command_a_module_statement_or_perfbench():
    assert unreached([u for _, u in src_uses()], bench_names()) == set()


def test_every_src_method_is_used_in_src_or_perfbench():
    assert unused_methods([u for _, u in src_uses()], bench_names()) == set()
