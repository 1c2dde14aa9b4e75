"""montecarlo.standardize is the one standardization: no other src function
calls analytic_mean_sd to centre and scale raw counts by the closed forms."""

from ast_uses import src_uses


def test_only_standardize_calls_analytic_mean_sd():
    assert {(module, u.func) for module, u in src_uses() if u.kind == "call"
            and u.name == "analytic_mean_sd"} == {("montecarlo", "standardize")}
