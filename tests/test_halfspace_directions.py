"""montecarlo._directions is the one halfspace direction loop: no other src
function draws from the halfspace stream 2^32, so convex_family and
convex_discrepancy read their cuts and counts off one projection and one
sort per distinct direction, and hold at most one projection at a time."""

import weakref

import numpy as np
import pytest

from ast_uses import src_uses
from cliquestats import montecarlo as mc

HALFSPACE_STREAM = {"gnp_generator:2 ** 32"}


def test_only_directions_draws_the_halfspace_stream():
    assert {(module, u.func) for module, u in src_uses() if u.kind == "arg"
            and u.name in HALFSPACE_STREAM} == {("montecarlo", "_directions")}


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_distinct_direction_is_projected_once(monkeypatch, d, seed):
    # at d = 1 every direction is +1.0 or -1.0, so at most two are projected;
    # at d >= 2 all 16 differ, and each earlier projection is gone but the
    # last when the next is made
    rng = np.random.default_rng([d, seed])
    w, z = rng.standard_normal((600, d)), rng.standard_normal((500, d)) + 0.1
    distinct = {u.tobytes() for u, _ in mc.convex_family(w, z, seed).halfspaces}
    made, alive = [], []
    project = mc._project

    def counted(s, u):
        alive.append(sum(ref() is not None for ref in made))
        out = project(s, u)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(mc, "_project", counted)
    mc.convex_discrepancy(w, z, seed=seed)
    assert len(made) == len(distinct)
    assert len(made) <= 2 if d == 1 else len(made) == mc.HALFSPACE_DIRECTIONS
    assert max(alive) <= 1
