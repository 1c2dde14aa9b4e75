"""Closed-form moment reports have one home, moments.statistic_cov_matrix:
only it and oracle.exact_moments construct a MomentReport, and kinds.py, which
holds the per-kind closed forms, does not import MomentReport, so no second
assembly of a spec's mean vector and covariance matrix grows there."""

from ast_uses import src_uses

REPORT = "MomentReport"
BUILDERS = [("moments", "statistic_cov_matrix"), ("oracle", "exact_moments")]


def test_only_statistic_cov_matrix_and_the_oracle_build_a_moment_report():
    assert [(module, u.func) for module, u in src_uses()
            if u.kind == "call" and u.name == REPORT] == BUILDERS


def test_kinds_does_not_import_moment_report():
    assert not [u.line for module, u in src_uses() if module == "kinds"
                and u.kind == "import" and u.name.split(".")[-1] == REPORT]
