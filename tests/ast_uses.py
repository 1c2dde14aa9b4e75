"""One walk over a module's syntax tree, shared by the single-owner guards:
each guard states its rule as a filter over the uses found here."""

import ast
import functools
import pathlib
from typing import NamedTuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"


class Use(NamedTuple):
    """kind "import": the dotted target, one leading dot per level of a relative
    import; "call": the callee's name or attribute; "arg": that name, a colon
    and the source of one argument, positional or a keyword's value, as
    ast.unparse writes it; "name": a name or attribute, attribute set for
    the latter; "str": a string;
    "compare": a string compared, alone or in a tuple, list or set, or matched
    by a case; "def": a function or class.  func and top are the
    innermost function and the top-level function or class around it, or None."""
    kind: str
    name: str
    line: int
    func: str | None
    top: str | None
    attribute: bool = False


def uses(tree) -> list[Use]:
    """Every use in tree, in source order."""
    found = []

    def visit(node, func, top):
        def add(kind, *names, attribute=False):
            found.extend(Use(kind, n, node.lineno, func, top, attribute)
                         for n in names if n is not None)

        if isinstance(node, ast.Import):
            add("import", *(a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module + "." if node.module else "")
            add("import", *(base + a.name for a in node.names))
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            add("call", callee)
            if callee is not None:
                add("arg", *("%s:%s" % (callee, ast.unparse(a))
                             for a in [*node.args, *(k.value for k in node.keywords)]))
        elif isinstance(node, ast.Name):
            add("name", node.id)
        elif isinstance(node, ast.Attribute):
            add("name", node.attr, attribute=True)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            add("str", node.value)
        elif isinstance(node, (ast.Compare, ast.MatchValue)):
            ops = [node.left, *node.comparators] if isinstance(node, ast.Compare) else [node.value]
            add("compare", *(e.value for op in ops for e in getattr(op, "elts", [op])
                             if isinstance(e, ast.Constant) and isinstance(e.value, str)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add("def", node.name)
            func = func if isinstance(node, ast.ClassDef) else node.name
            top = top or node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func, top)

    visit(tree, None, None)
    return found


@functools.cache
def src_uses() -> tuple:
    """(module, use) of every use in every src module, each parsed once."""
    return tuple((path.stem, u) for path in sorted(SRC.glob("*.py"))
                 for u in uses(ast.parse(path.read_text(encoding="utf-8"))))


def within(target: str, module: str) -> bool:
    """Whether the dotted import target is module or a name inside it."""
    return target == module or target.startswith(module + ".")


def reached(found, roots) -> set:
    """The top-level defs in found that the defined roots are or name, at any depth."""
    defs = {u.name for u in found if u.kind == "def" and u.top is None}
    reach, todo = set(), [root for root in roots if root in defs]
    while todo:
        name = todo.pop()
        if name not in reach:
            reach.add(name)
            todo += [u.name for u in found
                     if u.top == name and u.kind == "name" and u.name in defs]
    return reach


BUILD = ("__new__", "__init__", "__post_init__")  # the methods a call of a class runs


def reached_functions(found, roots) -> set:
    """(top, name) of each function or method in found that the roots are or
    name, at any depth, each with the uses whose innermost function it is: a
    name reaches every function of that name but a nested one outside its
    own top-level def, an attribute also every method of that name, and
    only a call of a class, or of cls inside one of its methods, reaches the
    class's BUILD methods.  So, unlike reached, naming a class for one of
    its methods does not reach its constructor, a local variable named like
    a method or like another def's nested function does not reach it, and a
    class passed uncalled is not followed."""
    classes = {u.top for u in found if u.kind == "def" and u.top and u.func is None}
    keys, body, methods, nested = {}, {}, set(), set()
    for u in found:
        if u.kind == "def" and (u.top or u.name not in classes):
            keys.setdefault(u.name, set()).add((u.top or u.name, u.name))
            if u.top in classes and u.func is None:
                methods.add((u.top, u.name))
            elif u.func is not None:
                nested.add((u.top, u.name))
        body.setdefault((u.top, u.func), []).append(u)
    reach, todo = set(), [key for root in roots for key in keys.get(root, ())]
    while todo:
        key = todo.pop()
        if key in reach:
            continue
        reach.add(key)
        for u in body.get(key, ()):
            built = key[0] if u.name == "cls" else u.name
            if u.kind == "name":
                todo += [k for k in keys.get(u.name, ()) if u.attribute or (k not in methods
                         and (k not in nested or k[0] == key[0]))]
            elif u.kind == "call" and built in classes:
                todo += [(built, m) for m in BUILD if (built, m) in keys.get(m, ())]
    return reach
