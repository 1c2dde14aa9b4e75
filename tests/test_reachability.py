"""Every function and method in src is reached, through the calls and names
that ast_uses.reached_functions follows, from cli.main, from the code that
runs on import (a module's or a class body's statements outside every
function), or from perfbench, whose every name, call and string part counts
as a use on import.  A def that only tests reach belongs in
tests/reference.py.

No dunder name is followed, so perfbench's own __init__ reaches no __init__
in src: a class's __new__, __init__ and __post_init__ are reached only by a
call of the class in src or perfbench.  Its other dunders have no call or
name to show their use, since operators, builtins and printing call them
implicitly.  So they are exempt from the rule, but only as entries of
IMPLICIT, each with the use in src or perfbench that calls it."""

import ast

from ast_uses import SRC, Use, reached_functions, src_uses, uses

BENCH = SRC.parent.parent / "perfbench"
IMPORT = "<import>"  # one function holding every use that runs on import
IMPLICIT = {}  # (class, operator dunder) -> the use in src or perfbench that calls it


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(src, bench) -> set:
    """(top, name) of each function and method in the uses src, but those in
    IMPLICIT, that main and IMPORT do not reach.  IMPORT's uses are those of
    src outside every function and bench's names, calls and dotted string
    parts; no dunder name is followed."""
    on_import = [u for u in src if u.kind != "def" and u.func is None]
    on_import += [u for u in bench if u.kind in ("name", "call")]
    on_import += [Use("name", part, u.line, None, None)
                  for u in bench if u.kind == "str" for part in u.name.split(".")]
    found = [u for u in src if u.kind == "def" or u.func] + [Use("def", IMPORT, 0, None, None)]
    found += [u._replace(top=IMPORT, func=IMPORT) for u in on_import]
    found = [u for u in found if not (u.kind == "name" and dunder(u.name))]
    classes = {u.top for u in src if u.kind == "def" and u.top and u.func is None}
    defs = {(u.top or u.name, u.name) for u in src
            if u.kind == "def" and not (u.top is None and u.name in classes)}
    return defs - reached_functions(found, ["main", IMPORT]) - IMPLICIT.keys()


def bench_uses() -> list:
    return [u for path in sorted(BENCH.glob("*.py"))
            for u in uses(ast.parse(path.read_text(encoding="utf-8")))]


def test_every_src_function_and_method_is_reached_from_a_command_an_import_or_perfbench():
    assert unreached([u for _, u in src_uses()], bench_uses()) == set()
