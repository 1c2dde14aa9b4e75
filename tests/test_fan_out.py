"""The process fan-out has one owner, montecarlo.parallel_map: only
montecarlo.py names concurrent.futures, ProcessPoolExecutor or
multiprocessing, and no src function but parallel_map calls pool_workers,
so no caller cuts its own work for workers."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
POOL_NAMES = {"concurrent", "ProcessPoolExecutor", "multiprocessing"}


def _pool_names(tree):
    """(line, name) of each import, name or attribute in tree that names a
    process pool module or class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in POOL_NAMES]
    return found


def _callers(tree, callee):
    """The functions in tree that call callee by name or attribute, and
    "<module>" once per call outside every function."""
    def calls(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and getattr(c.func, "attr", getattr(c.func, "id", None)) == callee]
    funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inside = {id(c) for f in funcs for c in calls(f)}
    return ([f.name for f in funcs if calls(f)]
            + ["<module>" for c in calls(tree) if id(c) not in inside])


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def test_only_montecarlo_names_the_process_pool():
    assert not ["%s:%d: %s" % (name, line, found) for name, tree in _trees()
                if name != "montecarlo.py" for line, found in _pool_names(tree)]


def test_only_parallel_map_calls_pool_workers():
    assert [(name, f) for name, tree in _trees() for f in _callers(tree, "pool_workers")] \
        == [("montecarlo.py", "parallel_map")]


def test_fan_out_finders_see_each_form():
    for src in ("import concurrent.futures", "from concurrent.futures import ProcessPoolExecutor",
                "import multiprocessing as mp", "from multiprocessing import Pool",
                "futures.ProcessPoolExecutor(2)", "ProcessPoolExecutor(max_workers=2)",
                "multiprocessing.get_context('fork')"):
        assert _pool_names(ast.parse(src)), src
    assert not _pool_names(ast.parse("os.sched_getaffinity(0)"))
    tree = ast.parse("def f(x):\n    return mc.pool_workers(x, 3)\n"
                     "def g():\n    def h():\n        pool_workers(1, 1)\n"
                     "k = pool_workers(2, 2)\n")
    assert _callers(tree, "pool_workers") == ["f", "g", "h", "<module>"]
