"""The lexicographic pair layout has one owner, graphs.py: no other src module
packs or unpacks edge bits or builds a triangle mask.  graphs.py also owns the
Philox keying: no other src module builds a bit generator or a Generator.
Sampled draws in the library take the replicate path (gnp_pairs into
pair_matrix): only cli.py's morse-demo builds a Graph through sample_gnp."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
LAYOUT_CALLS = {"packbits", "unpackbits", "tri", "from_bytes", "to_bytes"}
GENERATOR_CALLS = {"Philox", "Generator", "default_rng"}


def _layout_calls(tree, names=LAYOUT_CALLS):
    """(line, name) of each call in tree to a name or attribute in names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                found.append((node.lineno, name))
    return found


def _calls_outside(module, names):
    return ["%s:%d: %s" % (path.name, line, name)
            for path in sorted(SRC.glob("*.py")) if path.name != module
            for line, name in _layout_calls(ast.parse(path.read_text(encoding="utf-8")), names)]


def test_only_graphs_handles_the_pair_layout():
    assert not _calls_outside("graphs.py", LAYOUT_CALLS)


def test_only_graphs_builds_generators():
    assert not _calls_outside("graphs.py", GENERATOR_CALLS)


def test_only_cli_samples_a_graph():
    assert not _calls_outside("cli.py", {"sample_gnp"})


def test_layout_call_finder_sees_each_form():
    forms = ["np.packbits(x)", "numpy.unpackbits(x, count=3)", "np.tri(4, k=-1)",
             "int.from_bytes(b, 'little')", "mask.to_bytes(2, 'little')",
             "(1 << 9).to_bytes(2, 'little')", "packbits(x)", "f(unpackbits(x))"]
    for src in forms:
        assert _layout_calls(ast.parse(src)), src
    # a rectangle's index pairs are not the pair layout
    assert not _layout_calls(ast.parse("np.triu_indices(s, 1)"))
    for src in ("sample_gnp(params, stream=r)", "graphs.sample_gnp(params)"):
        assert _layout_calls(ast.parse(src), {"sample_gnp"}), src
    for src in ("np.random.Philox(key=k)", "numpy.random.Generator(bitgen)", "Philox(k)",
                "np.random.default_rng([1, 2])"):
        assert _layout_calls(ast.parse(src), GENERATOR_CALLS), src
    # the library's keyed generator is not a bit generator built in place
    assert not _layout_calls(ast.parse("gnp_generator(seed, r)"), GENERATOR_CALLS)
