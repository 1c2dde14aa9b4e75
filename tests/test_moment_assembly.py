"""Closed-form moment reports have one home, moments.statistic_cov_matrix:
only it and oracle.exact_moments construct a MomentReport, and kinds.py, which
holds the per-kind closed forms, does not import MomentReport, so no second
assembly of a spec's mean vector and covariance matrix grows there."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
REPORT = "MomentReport"
BUILDERS = [("moments.py", "statistic_cov_matrix"), ("oracle.py", "exact_moments")]


def _report_uses(tree):
    """(line, enclosing function or None, "call" or "import") of each
    construction of REPORT in tree, by name or attribute, and of each
    from-import of it."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == REPORT):
            found.append((node.lineno, func, "call"))
        if isinstance(node, ast.ImportFrom) and any(a.name == REPORT for a in node.names):
            found.append((node.lineno, func, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _uses():
    return [(path.name, line, func, how) for path in sorted(SRC.glob("*.py"))
            for line, func, how in _report_uses(ast.parse(path.read_text(encoding="utf-8")))]


def test_only_statistic_cov_matrix_and_the_oracle_build_a_moment_report():
    assert [(name, func) for name, _, func, how in _uses() if how == "call"] == BUILDERS


def test_kinds_does_not_import_moment_report():
    assert not [line for name, line, _, how in _uses() if name == "kinds.py" and how == "import"]


def test_moment_report_finder_sees_each_form():
    src = ("from .moments import MomentReport, sigma\n"
           "def f(kind):\n    return MomentReport(kind, {}, [], [], 'analytic')\n"
           "g = lambda: mo.MomentReport('clique', {}, [], [], 'empirical')\n")
    assert _report_uses(ast.parse(src)) == [(1, None, "import"), (3, "f", "call"),
                                            (4, None, "call")]
    # defining or annotating with the class is not building one
    assert not _report_uses(ast.parse("class MomentReport:\n    pass\n"
                                      "def h() -> MomentReport:\n    pass\n"))
