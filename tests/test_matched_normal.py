"""The matched normal has one routine in verify.py, matched_normal_report:
it alone there draws the normal sample and estimates the discrepancies that
simulate --check and the rates suite print, so the two cannot disagree.
suite_degenerate_sigma, which feeds the estimators a hand-made singular
covariance, is the one other caller."""

import ast

from ast_uses import SRC, src_uses

MATCHING = {"mvn_samples", "smooth_discrepancy", "convex_discrepancy"}
CALLERS = ["matched_normal_report", "suite_degenerate_sigma"]


def test_only_matched_normal_report_and_degenerate_sigma_match_a_normal():
    assert sorted({u.func for module, u in src_uses() if module == "verify"
                   and u.kind == "call" and u.name in MATCHING}) == CALLERS


def test_matched_normal_report_takes_only_cfg_and_threads():
    # a signature is not a use, so this one rule reads the tree itself
    defs = [node for node in ast.walk(ast.parse((SRC / "verify.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == "matched_normal_report"]
    assert len(defs) == 1
    args = defs[0].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["cfg", "threads"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs)
