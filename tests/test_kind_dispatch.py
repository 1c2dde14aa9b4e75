"""Kinds are dispatched through the registry in kinds.py: no src module
compares a value with a kind name ("critical", "clique", "link")."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
KIND_NAMES = {"critical", "clique", "link"}


def _kind_literals(node):
    """Kind-name string constants in node, or in the tuple, list or set it is."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [e.value for e in items
            if isinstance(e, ast.Constant) and e.value in KIND_NAMES]


def test_src_compares_no_value_with_a_kind_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.MatchValue):
                operands = [node.value]
            else:
                continue
            found += ["%s:%d: %s" % (path.name, node.lineno, name)
                      for op in operands for name in _kind_literals(op)]
    assert not found


def test_kind_literal_finder_sees_each_form():
    forms = ['kind == "link"', '"clique" != kind', 'kind in ("x", "critical")',
             'kind in ["clique"]', 'kind in {"link"}']
    for src in forms:
        compare = ast.parse(src, mode="eval").body
        assert [n for op in [compare.left, *compare.comparators]
                for n in _kind_literals(op)], src
    match = ast.parse('match kind:\n    case "link":\n        pass\n')
    assert any(_kind_literals(n.value) for n in ast.walk(match)
               if isinstance(n, ast.MatchValue))


def _kinds_imports(tree, module):
    """'module.function' of each import from kinds inside a top-level function
    of tree, and 'module' of each one elsewhere: `from .kinds import ...`
    and `from . import kinds`."""
    found = []
    for top in tree.body:
        where = module + "." + top.name if isinstance(top, ast.FunctionDef) else module
        found += [where for node in ast.walk(top) if isinstance(node, ast.ImportFrom)
                  and node.level and (node.module == "kinds" or node.module is None
                                      and any(a.name == "kinds" for a in node.names))]
    return found


def test_modules_the_registry_is_built_on_do_not_import_it_back():
    # statistic_cov_matrix keeps its call-time import: it is public under
    # that name, and assembles reports for every kind
    kinds = ast.parse((SRC / "kinds.py").read_text(encoding="utf-8"))
    bases = sorted(node.module for node in kinds.body
                   if isinstance(node, ast.ImportFrom) and node.level)
    found = [where for name in bases for where in _kinds_imports(
        ast.parse((SRC / (name + ".py")).read_text(encoding="utf-8")), name)]
    assert found == ["moments.statistic_cov_matrix"]


def test_kinds_import_finder_sees_each_form():
    src = ("from .kinds import KINDS\n"
           "def f(kind):\n    from .kinds import statistic\n    return statistic(kind)\n"
           "def g():\n    from . import kinds\n    return kinds\n"
           "def h():\n    from .graphs import kinds_of, Graph\n    from . import graphs\n")
    assert _kinds_imports(ast.parse(src), "m") == ["m", "m.f", "m.g"]
