"""The scan sees each form the single-owner guards rely on, and no look-alike."""

import ast

import pytest

from ast_uses import reached, reached_functions, uses, within
from test_fan_out import POOL_NAMES
from test_halfspace_directions import HALFSPACE_STREAM
from test_kind_dispatch import KIND_NAMES
from test_matched_normal import MATCHING
from test_morse_independence import FORMULA
from test_pair_layout import GENERATOR_CALLS, LAYOUT_CALLS
from test_reachability import unreached, unused_methods
from test_walk_checked_once import TUPLE_CHECK, TUPLE_VIEWS, Unraised

CALL, POOL, TABLE = ["call"], ["import", "name"], "_small_graph_counts"
# rule: (use kinds, names, sources in each of which the scan finds such a use, look-alikes)
FORMS = {
    "kind_compare": (["compare"], KIND_NAMES, [
        'kind == "link"', '"clique" != kind', 'kind in ("x", "critical")', 'kind in ["clique"]',
        'kind in {"link"}', 'match kind:\n    case "link":\n        pass\n'], []),
    "pool": (POOL, POOL_NAMES, [
        "import concurrent.futures", "import multiprocessing as mp",
        "from concurrent.futures import ProcessPoolExecutor", "from multiprocessing import Pool",
        "futures.ProcessPoolExecutor(2)", "ProcessPoolExecutor(max_workers=2)",
        "multiprocessing.get_context('f')"], ["os.sched_getaffinity(0)"]),
    "layout_call": (CALL, LAYOUT_CALLS, [
        "np.packbits(x)", "numpy.unpackbits(x, count=3)", "np.tri(4, k=-1)", "packbits(x)",
        "int.from_bytes(b, 'little')", "mask.to_bytes(2, 'little')", "f(unpackbits(x))",
        "(1 << 9).to_bytes(2, 'little')"], ["np.triu_indices(s, 1)"]),  # a rectangle's index pairs
    "generator_call": (CALL, GENERATOR_CALLS, [
        "np.random.Philox(key=k)", "numpy.random.Generator(bitgen)", "Philox(k)",
        "np.random.default_rng([1, 2])"],
        ["gnp_generator(seed, r)"]),  # the library's keyed generator
    "halfspace_stream": (["arg"], HALFSPACE_STREAM, [
        "gnp_generator(seed, 2 ** 32)", "rng = graphs.gnp_generator(int(s), stream=2**32)"],
        ["gnp_generator(seed, 0)", "gnp_generator(seed, 2 ** 31)", "f(seed, 2 ** 32)",
         "gnp_generator(seed, r)", "gnp_generator"]),
    "sample_gnp_call": (CALL, {"sample_gnp"},
                        ["sample_gnp(params, stream=r)", "graphs.sample_gnp(params)"], []),
    # defining or annotating with a class, importing, naming or passing a function is no call
    "no_call": (CALL, MATCHING | {"MomentReport"}, [], [
        "class MomentReport:\n    pass\n", "run(mvn_samples)", "est = [mc.convex_discrepancy]",
        "def h() -> MomentReport:\n    pass\n", "from .montecarlo import smooth_discrepancy"]),
}


@pytest.mark.parametrize("kinds, names, found, look_alikes", FORMS.values(), ids=list(FORMS))
def test_each_form_is_found_and_no_look_alike(kinds, names, found, look_alikes):
    for expected, src in [(True, s) for s in found] + [(False, s) for s in look_alikes]:
        assert expected == any(u.kind in kinds and names & set(u.name.split("."))
                               for u in uses(ast.parse(src))), src


def test_imports_are_dotted_targets_with_their_top_level_defs():
    src = ("import json\nfrom .kinds import KINDS\n"
           "def f(kind):\n    from .kinds import statistic\n    import json as j\n"
           "def g():\n    from . import kinds\n    from json import dumps\n"
           "def h():\n    from .graphs import kinds_of, Graph\n    from . import graphs\n"
           "    import os, json\n")
    found = [(u.top, u.name) for u in uses(ast.parse(src)) if u.kind == "import"]
    assert found == [(None, "json"), (None, ".kinds.KINDS"), ("f", ".kinds.statistic"),
                     ("f", "json"), ("g", ".kinds"), ("g", "json.dumps"),
                     ("h", ".graphs.kinds_of"), ("h", ".graphs.Graph"), ("h", ".graphs"),
                     ("h", "os"), ("h", "json")]
    assert [top for top, name in found if within(name, ".kinds")] == [None, "f", "g"]
    assert [top for top, name in found if within(name, "json")] == [None, "f", "g", "h"]
    # another module, a relative one, or a name bound is not a json import
    assert not [u for u in uses(ast.parse("import jsonschema\nfrom .json import x\njson = None\n"))
                if u.kind == "import" and within(u.name, "json")]


def test_calls_and_reads_with_their_innermost_and_top_level_defs():
    src = ("from .moments import _small_graph_counts\n"
           "def f(kind):\n    return MomentReport(kind)\n"
           "g = lambda: mo.MomentReport()\n"
           "def outer():\n    def inner():\n        return mc.smooth_discrepancy(w, z)\n"
           "def _small_graph_counts(n):\n    return _small_graph_counts(n - 1)\n"
           "k = lambda: kinds._small_graph_counts.cache_info()\n"
           "h = getattr(kinds, '_small_graph_counts')\n")
    found = [(u.kind, u.line, u.func, u.top) for u in uses(ast.parse(src)) if u.name.split(".")[-1]
             in {"MomentReport", "smooth_discrepancy", "inner", TABLE} and u.kind != "name"
             or u.name == TABLE]
    assert found == [("import", 1, None, None), ("call", 3, "f", "f"), ("call", 4, None, None),
                     ("def", 6, "outer", "outer"), ("call", 7, "inner", "outer"),
                     ("def", 8, None, None), ("call", 9, TABLE, TABLE), ("name", 9, TABLE, TABLE),
                     ("name", 10, None, None), ("str", 11, None, None)]
    # defining the table, and the uses inside its own definition, are no reads of it
    assert [line for kind, line, _, top in found if kind in ("import", "name", "str")
            and top != TABLE] == [1, 10, 11]


def test_reached_follows_calls_passed_functions_and_classes():
    for src in ["def lex_matching(g):\n    return clique_walk(g.adj, 1, 2)\n",
                "def lex_matching(g):\n    return helper(g)\n"
                "def helper(g):\n    return graphs.clique_levels(g, 3)\n",
                "def verify_acyclic(m, g):\n    return list(map(critical_counts_formula, [g]))\n",
                "def critical_counts_direct(g, d):\n    return M(g)\n"
                "class M:\n    def __init__(self, g):\n        clique_walk(g, 1, 2)\n"]:
        found = uses(ast.parse(src))
        assert FORMULA & {u.name for u in found if u.top in reached(found, [found[0].name])}, src
    # a walk the direct side does not reach is not its use, and a root not defined is not reached
    found = uses(ast.parse("def lex_matching(g):\n    return clique_lists(g, 2)\n"
                           "def clique_lists(g, top):\n    return []\n"
                           "def critical_counts_formula(g):\n    return clique_walk(g, 1, 2)\n"))
    assert reached(found, ["lex_matching", "renamed"]) == {"lex_matching", "clique_lists"}
    assert not FORMULA & {u.name for u in found if u.top in {"lex_matching", "clique_lists"}}


def test_reached_functions_follows_calls_of_a_class_not_its_name():
    checked = ("class M:\n    def __post_init__(self):\n        _validated(self.pairs)\n"
               "def _validated(pairs):\n    return _check_pairs(pairs)\n"
               "def _check_pairs(pairs):\n    pass\n")
    for src in ["def lex_matching(g):\n    return M(g)\n",
                "def lex_matching(g):\n    return helper(g)\n"
                "def helper(g):\n    return [M(p) for p in g]\n",
                "def lex_matching(g):\n    def inner():\n        return _check_pairs(g)\n"
                "    return inner()\n",
                "def lex_matching(g):\n    return M._of_walk(g)\n"
                "class W:\n    @classmethod\n    def _of_walk(cls, g):\n        return cls(g)\n"
                "    def __init__(self, g):\n        _validated(g)\n"]:
        found = uses(ast.parse(checked + src))
        assert TUPLE_CHECK & {n for _, n in reached_functions(found, ["lex_matching"])}, src
    # naming the class for a method, or building one without a call of it, runs no check
    found = uses(ast.parse(checked + "class N:\n    @classmethod\n    def _of_walk(cls, g):\n"
                           "        m = object.__new__(cls)\n        return _matched(g), M\n"
                           "def lex_matching(g):\n    return N._of_walk(g)[1], M.pairs\n"
                           "def _matched(g):\n    return g\n"))
    assert reached_functions(found, ["lex_matching", "renamed"]) == {
        ("lex_matching", "lex_matching"), ("N", "_of_walk"), ("_matched", "_matched")}


def test_reached_functions_reaches_a_method_through_an_attribute_not_a_local():
    view = ("class Matching:\n    @property\n    def pairs(self):\n"
            "        return mask_tuple(self.masks)\n"
            "def mask_tuple(m):\n    return ()\n"
            "def pair_matrix(n, pairs):\n    return pairs\n")
    for src in ["def verify_acyclic(m, g):\n    return [s for s, t in m.pairs]\n",
                "def verify_acyclic(m, g):\n    return [mask_tuple(t) for s, t in m.masks]\n"]:
        found = uses(Unraised().visit(ast.parse(view + src)))
        assert TUPLE_VIEWS & reached_functions(found, ["verify_acyclic"]), src
    # a parameter named like the view, or a tuple only in what is raised, reaches neither
    for src in ["def verify_acyclic(m, g):\n    return pair_matrix(g.n, m.masks)\n",
                "def verify_acyclic(m, g):\n    if not m.masks:\n"
                "        raise ValueError(mask_tuple(g))\n    return m.masks\n"]:
        found = uses(Unraised().visit(ast.parse(view + src)))
        assert reached_functions(found, ["verify_acyclic"]) - {("verify_acyclic",) * 2} \
            <= {("pair_matrix",) * 2}, src


def test_unreached_leaves_out_what_main_a_module_statement_or_a_given_name_reaches():
    found = uses(ast.parse("def main():\n    return helper()\n"
                           "def helper():\n    return 1\n"
                           "TABLE = {'k': from_table}\n"
                           "def from_table():\n    return Report()\n"
                           "class Report:\n    def as_dict(self):\n        return nested()\n"
                           "def nested():\n    pass\n"
                           "def bench_only():\n    pass\n"
                           "def orphan():\n    return only_orphan()\n"
                           "def only_orphan():\n    return helper()\n"
                           "def named_in_a_string():\n    return 'orphan'\n"))
    assert unreached(found, {"bench_only"}) == {"orphan", "only_orphan", "named_in_a_string"}


def test_unused_methods_flags_a_method_named_only_in_its_own_body():
    found = uses(ast.parse("class Vector:\n"
                           "    def __len__(self):\n        return 0\n"
                           "    def by_size(self, k):\n        return self.by_size(k - 1)\n"
                           "    def dims(self):\n        return 1\n"
                           "    def dump(self):\n        return 2\n"
                           "    @property\n    def d(self):\n        return 3\n"
                           "def report(v):\n    return v.dims() + getattr(v, 'x.d')\n"
                           "def outer():\n    def inner():\n        pass\n"))
    # a dunder, a method another def calls or names in a string, and a nested
    # function are not flagged; a name perfbench uses saves a method
    assert unused_methods(found, set()) == {"by_size", "dump"}
    assert unused_methods(found, {"dump"}) == {"by_size"}
