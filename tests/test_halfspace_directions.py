"""montecarlo._directions is the one halfspace direction loop: no other src
function draws from the halfspace stream 2^32, so convex_family and
convex_discrepancy read their cuts and counts off one projection and one
sort per direction."""

from ast_uses import src_uses

HALFSPACE_STREAM = {"gnp_generator:2 ** 32"}


def test_only_directions_draws_the_halfspace_stream():
    assert {(module, u.func) for module, u in src_uses() if u.kind == "arg"
            and u.name in HALFSPACE_STREAM} == {("montecarlo", "_directions")}
