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
