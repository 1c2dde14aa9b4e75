"""The lexicographic pair layout has one owner, graphs.py: no other src module
packs or unpacks edge bits or builds a triangle mask.  graphs.py also owns the
Philox keying: no other src module builds a bit generator or a Generator.
Sampled draws in the library take the replicate path (gnp_pairs into
pair_matrix): only cli.py's morse-demo builds a Graph through sample_gnp."""

from ast_uses import src_uses

LAYOUT_CALLS = {"packbits", "unpackbits", "tri", "from_bytes", "to_bytes"}
GENERATOR_CALLS = {"Philox", "Generator", "default_rng"}


def _calls_outside(owner, names):
    return ["%s:%d: %s" % (module, u.line, u.name) for module, u in src_uses()
            if module != owner and u.kind == "call" and u.name in names]


def test_only_graphs_handles_the_pair_layout():
    assert not _calls_outside("graphs", LAYOUT_CALLS)


def test_only_graphs_builds_generators():
    assert not _calls_outside("graphs", GENERATOR_CALLS)


def test_only_cli_samples_a_graph():
    assert not _calls_outside("cli", {"sample_gnp"})
