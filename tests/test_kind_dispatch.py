"""Kinds are dispatched through the registry in kinds.py: no src module
compares a value with a kind name ("critical", "clique", "link")."""

from ast_uses import src_uses, within

KIND_NAMES = {"critical", "clique", "link"}


def test_src_compares_no_value_with_a_kind_name():
    assert not ["%s:%d: %s" % (module, u.line, u.name) for module, u in src_uses()
                if u.kind == "compare" and u.name in KIND_NAMES]


def test_modules_the_registry_is_built_on_do_not_import_it_back():
    # statistic_cov_matrix keeps its call-time import: it is public under
    # that name, and assembles reports for every kind
    bases = {u.name.split(".")[1] for module, u in src_uses() if module == "kinds"
             and u.kind == "import" and u.name.startswith(".") and u.top is None}
    found = [module + "." + u.top if u.top else module for module, u in src_uses()
             if module in bases and u.kind == "import" and within(u.name, ".kinds")]
    assert found == ["moments.statistic_cov_matrix"]
