"""The process fan-out has one owner, montecarlo.parallel_map: only
montecarlo.py names concurrent.futures, ProcessPoolExecutor or
multiprocessing, and no src function but parallel_map calls pool_workers,
so no caller cuts its own work for workers."""

from ast_uses import src_uses

POOL_NAMES = {"concurrent", "ProcessPoolExecutor", "multiprocessing"}


def test_only_montecarlo_names_the_process_pool():
    assert not ["%s:%d: %s" % (module, u.line, u.name) for module, u in src_uses()
                if module != "montecarlo" and u.kind in ("import", "name")
                and POOL_NAMES & set(u.name.split("."))]


def test_only_parallel_map_calls_pool_workers():
    assert {(module, u.func or "<module>") for module, u in src_uses()
            if u.kind == "call" and u.name == "pool_workers"} == {("montecarlo", "parallel_map")}
