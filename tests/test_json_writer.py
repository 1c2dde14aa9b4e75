"""cli.py is the one module in src that writes JSON: every report hands the
CLI a plain dict (``as_dict``), and ``cli._emit`` alone dumps it, so the
output format, and what may appear in it, is decided in one place."""

from ast_uses import src_uses, within


def test_only_cli_imports_json():
    assert {module for module, u in src_uses()
            if u.kind == "import" and within(u.name, "json")} == {"cli"}


def test_no_report_renders_itself():
    assert not [module for module, u in src_uses() if u.kind == "def" and u.name == "to_json"]
