"""The matched normal has one routine in verify.py, matched_normal_report:
it alone there draws the normal sample and estimates the discrepancies that
simulate --check and the rates suite print, so the two cannot disagree.
suite_degenerate_sigma, which feeds the estimators a hand-made singular
covariance, is the one other caller."""

import ast
import pathlib

VERIFY = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats" / "verify.py"
MATCHING = {"mvn_samples", "smooth_discrepancy", "convex_discrepancy"}
CALLERS = ["matched_normal_report", "suite_degenerate_sigma"]


def _matching_calls(tree):
    """(line, enclosing function or None, callee) of each call in tree to a
    MATCHING function, by name or attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in MATCHING:
                found.append((node.lineno, func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _tree():
    return ast.parse(VERIFY.read_text(encoding="utf-8"))


def test_only_matched_normal_report_and_degenerate_sigma_match_a_normal():
    assert sorted({func for _, func, _ in _matching_calls(_tree())}) == CALLERS


def test_matched_normal_report_takes_only_cfg_and_threads():
    defs = [node for node in ast.walk(_tree())
            if isinstance(node, ast.FunctionDef) and node.name == "matched_normal_report"]
    assert len(defs) == 1
    args = defs[0].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["cfg", "threads"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs)


def test_matching_call_finder_sees_each_form():
    src = ("from .montecarlo import mvn_samples\n"
           "def f(w, z):\n    return mc.smooth_discrepancy(w, z)\n"
           "g = lambda w, z: convex_discrepancy(w, z, seed=1)\n"
           "def h():\n    def inner():\n        return mvn_samples(c, 2, 0)\n")
    assert _matching_calls(ast.parse(src)) == [(3, "f", "smooth_discrepancy"),
                                               (4, None, "convex_discrepancy"),
                                               (7, "inner", "mvn_samples")]
    # importing, naming or passing one along is not calling it
    assert not _matching_calls(ast.parse("from .montecarlo import smooth_discrepancy\n"
                                         "est = [mc.convex_discrepancy]\nrun(mvn_samples)\n"))
