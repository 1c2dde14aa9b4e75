import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from cliquestats import cli
from cliquestats import verify as vf

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(*args, env=None, module="cliquestats.cli"):
    """Run the CLI in a child that imports this checkout's package first."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})


def test_python_dash_m_package_runs_the_cli(capsys):
    # python -m cliquestats prints what cli.main prints and exits with its code
    res = run_cli("verify", "--suite", "figure2", module="cliquestats")
    assert cli.main(["verify", "--suite", "figure2"]) == 0
    assert res.returncode == 0 and res.stdout == capsys.readouterr().out
    res = run_cli("verify", "--suite", "nope", module="cliquestats")
    assert res.returncode == 2 and "invalid choice" in res.stderr


def _readme_commands():
    """The cliquestats lines of README's "Command line" block, each with its
    continuation lines joined and its comment cut, as argument lists."""
    block = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("## Command line", 1)[1].split("```", 2)[1]
    lines = (line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("cliquestats ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    # every subcommand is shown, so the block was found and read whole
    assert {argv[0] for argv in commands} == {"moments", "bounds", "simulate", "verify",
                                              "morse-demo"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README example does not parse: cliquestats " + " ".join(argv))


def test_moments_clique_example():
    res = run_cli("moments", "--kind", "clique", "--n", "3", "--d", "2", "--p", "0.5")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["mean"] == [1.5, 0.125]
    assert payload["version"]
    assert payload["spec"]["kind"] == "clique"


def test_moments_critical_p1():
    res = run_cli("moments", "--kind", "critical", "--n", "3", "--d", "1", "--p", "1.0")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["mean"] == [0.0]


def test_moments_infeasible_exit2():
    res = run_cli("moments", "--kind", "link", "--n", "2", "--t-size", "3",
                  "--p", "0.5", "--d", "1")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_bounds_clique_value():
    res = run_cli("bounds", "--theorem", "clique", "--d", "1", "--p", "0.5", "--n", "100")
    payload = json.loads(res.stdout)
    smooth = payload["reports"][0]
    assert abs(smooth["value"] - 32.0 / 3.0 / 100.0) < 1e-12
    assert smooth["rate_exponent"] == -1.0


def test_bounds_convex_zero():
    res = run_cli("bounds", "--theorem", "convex", "--d", "1", "--smooth-b", "0")
    assert json.loads(res.stdout)["reports"][0]["value"] == 0.0


def test_bounds_link_vacuous_flag():
    res = run_cli("bounds", "--theorem", "link", "--d", "1", "--t-size", "1",
                  "--p", "0.5", "--n", "50")
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["vacuous"] is True
    assert payload["reports"][0]["value"] > 0


def test_bounds_missing_args_exit2():
    res = run_cli("bounds", "--theorem", "ustat")
    assert res.returncode == 2


def test_simulate_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--kind", "clique", "--n", "8", "--p", "0.5", "--d", "2",
            "--replicates", "20", "--master-seed", "9", "--format", "csv"]
    assert run_cli(*args, "-o", str(out1)).returncode == 0
    assert run_cli(*args, "-o", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    head = out1.read_text().splitlines()[0]
    assert head == "T2,T3,W1,W2"


def test_simulate_json_roundtrip():
    res = run_cli("simulate", "--kind", "link", "--n", "10", "--p", "0.5",
                  "--d", "1", "--t-size", "1", "--replicates", "50",
                  "--master-seed", "4")
    payload = json.loads(res.stdout)
    assert "moments" in payload and payload["spec"]["replicates"] == 50


def test_verify_figure2_exit0():
    res = run_cli("verify", "--suite", "figure2")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_unknown_suite_exit2():
    res = run_cli("verify", "--suite", "nonsense")
    assert res.returncode == 2


def test_run_suite_refuses_unknown_name_and_options_for_all(monkeypatch):
    monkeypatch.setattr(vf, "SUITES", {k: lambda **kw: pytest.fail("a gate ran")
                                       for k in vf.SUITES})
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        vf.run_suite("nonsense")
    with pytest.raises(ValueError, match="suite all takes no options"):
        vf.run_suite("all", threads=2, reps=5)


def test_morse_demo_graph_file(tmp_path):
    gf = tmp_path / "g.txt"
    gf.write_text("5\n1 2\n2 3\n1 4\n3 4\n3 5\n4 5\n")
    res = run_cli("morse-demo", "--graph-file", str(gf), "--d", "2")
    assert res.returncode == 0
    assert "4,5 -> 3,4,5" in res.stdout
    assert "critical counts (sizes 2..3): [1, 0]" in res.stdout


@pytest.mark.parametrize("flags,named", [
    (["--n", "8"], "--n"),
    (["--p", "0.5"], "--p"),
    (["--master-seed", "0"], "--master-seed"),
    (["--master-seed", "3", "--n", "5", "--p", "0.2"], "--n, --p, --master-seed"),
])
def test_morse_demo_graph_file_refuses_the_sampling_flags(flags, named, tmp_path, capsys):
    # the graph file fixes the graph, so the flags that draw one would change nothing
    gf = tmp_path / "g.txt"
    gf.write_text("5\n1 2\n2 3\n1 4\n3 4\n3 5\n4 5\n")
    assert cli.main(["morse-demo", "--graph-file", str(gf), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: read only when no --graph-file is given\n" % named


def test_morse_demo_default_graph_is_g_8_half_at_seed_0(capsys, monkeypatch):
    monkeypatch.delenv("CLIQUESTATS_SEED", raising=False)
    outs = []
    for args in ([], ["--n", "8", "--p", "0.5", "--master-seed", "0"]):
        assert cli.main(["morse-demo", *args]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "critical counts (sizes 2..3):" in outs[0]


def test_morse_demo_malformed_graph_file_names_line(tmp_path):
    gf = tmp_path / "g.txt"
    gf.write_text("5\n1 2\n2 3 4\n")
    res = run_cli("morse-demo", "--graph-file", str(gf))
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_simulate_check_largest_seed_exit0():
    res = run_cli("simulate", "--kind", "clique", "--n", "8", "--p", "0.5",
                  "--replicates", "200", "--master-seed", str(2 ** 64 - 1), "--check")
    assert res.returncode == 0, res.stderr


def test_simulate_check_artifact(tmp_path):
    out = tmp_path / "run.json"
    res = run_cli("simulate", "--kind", "link", "--n", "40", "--p", "0.5",
                  "--d", "1", "--t-size", "1", "--replicates", "4000",
                  "--master-seed", "21", "--check", "-o", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    run = payload["run"]
    assert set(run) == {"config", "moments", "bounds", "discrepancies", "verdicts"}
    assert run["verdicts"]["smooth"] in ("PASS", "VACUOUS-PASS")
    assert run["bounds"]["smooth"]["vacuous"] is True


def test_json_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["moments", "--kind", "critical", "--n", "5", "--d", "2", "--p", "0.5"]
    assert run_cli(*args, "-o", str(a)).returncode == 0
    assert run_cli(*args, "-o", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["report"]["provenance"] == "exact-oracle"


def test_verify_output_embeds_spec(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "--suite", "bound-spots", "-o", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "bound-spots"
    assert payload["passed"] is True
    assert payload["spec"]["command"] == "verify"


ZERO_VARIANCE = ("error: %s: division by zero: component %s has zero variance, and the bound "
                 "or the standardization divides by it\n")


def test_bounds_critical_zero_variance_exit2():
    # no critical 2-simplex exists on 3 vertices, so its variance is 0
    args = "bounds --theorem critical --n 3 --d 2 --p 0.5"
    res = run_cli(*args.split())
    assert res.returncode == 2
    assert "zero variance" in res.stderr
    assert res.stderr == ZERO_VARIANCE % (args, "2 of 2")


@pytest.mark.parametrize("args", [
    # the critical variances underflow to 0 at p = 1e-160
    "bounds --theorem critical --n 6 --d 2 --p 1e-160",
    "simulate --kind critical --n 6 --d 2 --p 1e-160 --check",
])
def test_zero_variance_exit2_echoes_the_command_and_names_the_component(args, capsys):
    assert cli.main(args.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ZERO_VARIANCE % (args, "1 of 2")


def test_simulate_empirical_degenerate_exit2():
    # every replicate of K4 has 6 edges: no sample variance to scale by
    res = run_cli("simulate", "--kind", "clique", "--n", "4", "--p", "1.0", "--d", "1",
                  "--standardization", "empirical", "--format", "csv")
    assert res.returncode == 2
    assert "nan" not in res.stdout


def test_simulate_negative_seed_exit2():
    res = run_cli("simulate", "--kind", "clique", "--n", "8", "--p", "0.5",
                  "--master-seed", "-1")
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_non_integer_seed_env_exit2():
    res = run_cli("simulate", "--kind", "clique", "--n", "8", "--p", "0.5",
                  env={"CLIQUESTATS_SEED": "abc"})
    assert res.returncode == 2
    assert "CLIQUESTATS_SEED" in res.stderr


@pytest.mark.parametrize("args", [
    ["--help"],
    ["bounds", "--theorem", "clique", "--n", "10", "--p", "0.5"],
    ["verify", "--suite", "figure2"],
    ["simulate", "--kind", "clique", "--n", "8", "--p", "0.5", "--replicates", "20",
     "--master-seed", "3"],
])
def test_non_integer_seed_env_spares_a_command_that_does_not_read_it(args, monkeypatch, capsys):
    monkeypatch.setenv("CLIQUESTATS_SEED", "abc")
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""


def test_simulate_check_refuses_csv_before_simulating(capsys, monkeypatch):
    from cliquestats import montecarlo as mc
    monkeypatch.setattr(mc, "_raw_chunk", lambda *a: pytest.fail("a replicate ran"))
    assert cli.main(["simulate", "--kind", "clique", "--n", "8", "--p", "0.5", "--check",
                     "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--check does not take --format csv" in err


def test_bounds_clique_n0_exit2(capsys):
    assert cli.main(["bounds", "--theorem", "clique", "--n", "0", "--d", "1",
                     "--p", "0.5"]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_bounds_convex_nan_exit2(capsys):
    assert cli.main(["bounds", "--theorem", "convex", "--d", "1",
                     "--smooth-b", "nan"]) == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite in [*vf.SUITES, "all"] for flag in cli.VERIFY_OPTS
    if flag not in cli.VERIFY_FLAGS.get(suite, {})])
def test_verify_flag_the_suite_does_not_take_exit2(suite, flag, capsys, monkeypatch):
    monkeypatch.setattr(vf, "run_suite", lambda *a, **k: pytest.fail("a gate ran"))
    opt = "--" + flag.replace("_", "-")
    assert cli.main(["verify", "--suite", suite, opt, "2"]) == 2
    err = capsys.readouterr().err
    assert "does not take " + opt in err


def test_verify_flag_table_matches_suite_signatures():
    for suite, flags in cli.VERIFY_FLAGS.items():
        params = inspect.signature(vf.SUITES[suite]).parameters
        assert set(flags.values()) <= set(params), suite


@pytest.mark.parametrize("args", [
    ["--suite", "oracle", "--n-max", "1"],
    ["--suite", "morse-equivalence", "--graphs", "0"],
    ["--suite", "morse-equivalence", "--graphs", "-5"],
    ["--suite", "morse-equivalence", "--n", "3"],
])
def test_verify_value_that_runs_no_gate_exit2(args, capsys):
    assert cli.main(["verify", *args]) == 2
    assert "must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("n_max", [7, 12])
def test_verify_oracle_n_max_above_cap_exit2_before_a_gate(n_max, capsys, monkeypatch):
    from cliquestats import oracle
    monkeypatch.setattr(oracle, "exact_moments", lambda *a, **k: pytest.fail("a gate ran"))
    assert cli.main(["verify", "--suite", "oracle", "--n-max", str(n_max)]) == 2
    assert "<= 6, the enumeration cap (got %d)" % n_max in capsys.readouterr().err


def test_verify_oracle_n_max_2_exit0(capsys):
    assert cli.main(["verify", "--suite", "oracle", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "oracle critical" in out and out.endswith("suite oracle: PASS\n")


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "clique", "--n", "8", "--p", "0.5", "--replicates", "5",
     "--threads", "0"],
    ["simulate", "--kind", "clique", "--n", "8", "--p", "0.5", "--replicates", "5",
     "--threads", "-1", "--check"],
    ["verify", "--suite", "morse-equivalence", "--threads", "-2"],
    ["verify", "--suite", "morse-equivalence", "--threads", "0"],
])
def test_threads_below_1_exit2(args, capsys, monkeypatch):
    from cliquestats import montecarlo as mc
    monkeypatch.setattr(mc, "_raw_chunk", lambda *a: pytest.fail("a replicate ran"))
    monkeypatch.setattr(mc, "parallel_map", lambda *a: pytest.fail("a job ran"))
    assert cli.main(args) == 2
    assert "threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    # the per-replicate route, the table route, and the matched-normal report
    ["--kind", "clique", "--n", "8", "--p", "0.5", "--d", "2", "--replicates", "300"],
    ["--kind", "clique", "--n", "6", "--p", "0.3", "--d", "2", "--replicates", "300",
     "--format", "csv"],
    ["--kind", "critical", "--n", "10", "--p", "0.5", "--d", "2", "--replicates", "300",
     "--check"],
], ids=["json", "csv", "check"])
def test_simulate_output_does_not_depend_on_threads(args):
    one, three = (run_cli("simulate", *args, "--master-seed", "9", "--threads", t)
                  for t in ("1", "3"))
    assert one.returncode == three.returncode == 0, three.stderr
    if "--format" in args:  # no spec echo in a csv dump
        assert one.stdout == three.stdout
    else:  # the spec echoes threads, and nothing else differs
        assert json.loads(three.stdout)["spec"]["threads"] == 3
        assert one.stdout.replace('"threads": 1', '"threads": 3') == three.stdout


def test_verify_morse_equivalence_does_not_depend_on_threads():
    one, three = (run_cli("verify", "--suite", "morse-equivalence", "--graphs", "40",
                          "--threads", t) for t in ("1", "3"))
    assert one.returncode == three.returncode == 0, three.stderr
    assert one.stdout == three.stdout and "40 random graphs n=12" in one.stdout


@pytest.mark.parametrize("args", [
    ["--kind", "clique", "--n", "40", "--d", "5"],
    ["--kind", "link", "--n", "7", "--t-size", "1", "--d", "6"],
])
def test_simulate_check_convex_beyond_d4_exit2_before_simulating(args, capsys, monkeypatch):
    # the rectangle corner gathers would take 25.8 GB at d = 5
    from cliquestats import montecarlo as mc
    monkeypatch.setattr(mc, "_raw_chunk", lambda *a: pytest.fail("a replicate ran"))
    assert cli.main(["simulate", *args, "--p", "0.5", "--check"]) == 2
    assert "convex discrepancy at d=%s" % args[-1] in capsys.readouterr().err


@pytest.mark.parametrize("suite,reps,least", [
    ("rates", 3, 4), ("rates", 0, 4), ("oracle-mc", 6, 10), ("oracle-mc", 9, 10)])
def test_verify_too_few_replicates_exit2_before_simulating(suite, reps, least, capsys,
                                                          monkeypatch):
    from cliquestats import montecarlo as mc
    monkeypatch.setattr(mc, "simulate_raw", lambda *a, **k: pytest.fail("simulated"))
    assert cli.main(["verify", "--suite", suite, "--replicates", str(reps)]) == 2
    assert "reps must be >= %d (got %d)" % (least, reps) in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--d", "0"], ["--d", "-3"], ["--max-size", "0"],
                                  ["--max-size", "-1"]])
def test_morse_demo_size_below_1_exit2(args, capsys):
    assert cli.main(["morse-demo", "--n", "6", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--d and --max-size must be >= 1" in captured.err


def test_morse_demo_max_size_1_exit0(capsys):
    assert cli.main(["morse-demo", "--n", "6", "--d", "1", "--max-size", "1"]) == 0
    assert "critical counts (sizes 2..2):" in capsys.readouterr().out


@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 37.3 GiB for an array with shape (4999950000,) and "
                 "data type float64"), "out of memory: Unable to allocate 37.3 GiB"),
    (MemoryError(), "out of memory: allocation failed"),
])
def test_morse_demo_out_of_memory_exit2(error, message, capsys, monkeypatch):
    # n = 100000 asks numpy for C(n, 2) pair variates, which fails as here
    from cliquestats import graphs

    def refuse(rng, n, p):
        raise error
    monkeypatch.setattr(graphs, "gnp_pairs", refuse)
    assert cli.main(["morse-demo", "--n", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: morse-demo --n 100000: " + message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args,message", [
    ("bounds --theorem clique --n 10 --d 3 --p 1e-300", "out of range"),
    ("bounds --theorem ustat --k-vec 2,400 --alpha-vec 0.2,0.1 --beta 0.5",
     "too large to convert"),
    ("moments --kind link --n 10 --d 2 --t-size 1 --p 1e-200", "out of range"),
    ("bounds --theorem link --n 100 --t-size 1 --d 30 --p 0.5", "not finite"),
    ("bounds --theorem convex --d 2 --smooth-b inf", "not finite"),
    ("bounds --theorem ustat --k-vec 2,3 --alpha-vec 0.2,0.1 --beta inf", "not finite"),
    # p ** -1 rounds to 1 at p = 1 - 2^-53, and 0.0 ** -1.5 divides by zero
    ("bounds --theorem clique --n 40 --d 2 --p 0.9999999999999999", "division by zero"),
    ("bounds --theorem link --n 40 --d 1 --t-size 1 --p 0.9999999999999999", "division by zero"),
    ("simulate --kind clique --n 40 --d 2 --p 0.9999999999999999 --check", "division by zero"),
    ("simulate --kind link --n 40 --d 1 --p 0.9999999999999999 --check", "division by zero"),
    # the product of the floors underflows to 0
    ("bounds --theorem ustat --k-vec 2 --alpha-vec 1e-320 --beta 1", "division by zero"),
    ("bounds --theorem ustat --k-vec 2 --alpha-vec inf --beta 1", "finite and positive"),
    ("bounds --theorem ustat-no-x --k-vec 2 --alpha-vec nan --beta 1", "finite and positive"),
])
def test_overflow_and_infinite_values_exit2(args, message, capsys):
    assert cli.main(args.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def _strict(token):
    raise ValueError("not JSON: %s" % token)


# every kind through each numeric command at small n, with p at the edges of
# (0, 1) where powers of p overflow, underflow or round to 1
CONTRACT_PS = ("5e-324", "1e-160", repr(1 - 2 ** -53), repr(1 - 2 ** -52))
CONTRACT_SWEEP = [
    cmd % (kind, n, d, p) for p in CONTRACT_PS for kind in ("critical", "clique", "link")
    for n, d in ((4, 1), (6, 2)) for cmd in (
        "moments --kind %s --n %d --d %d --p %s",
        "bounds --theorem %s --n %d --d %d --p %s",
        "simulate --kind %s --n %d --d %d --p %s --replicates 50 --check")
] + ["bounds --theorem ustat --k-vec 2 --alpha-vec %s --beta 1" % a for a in ("1e-320", "inf")]


@pytest.mark.parametrize("args", CONTRACT_SWEEP)
def test_contract_sweep_exits_0_with_json_or_2_with_one_line(args, capsys):
    code = cli.main(args.split())
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        assert captured.err == ""
        json.loads(captured.out, parse_constant=_strict)
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args,named", [
    ("bounds --theorem clique --n 10 --d 3 --p 1e-300", ["bounds", "--p 1e-300"]),
    ("moments --kind link --n 10 --d 2 --t-size 1 --p 1e-200", ["moments", "--p 1e-200"]),
    ("bounds --theorem ustat --k-vec 2,400 --alpha-vec 0.1,0.1 --beta 1",
     ["bounds", "--k-vec 2,400"]),
    ("bounds --theorem ustat --k-vec 2,x --alpha-vec 0.1,0.1 --beta 1", ["--k-vec", "'2,x'"]),
    ("bounds --theorem ustat-no-x --k-vec 2,3 --alpha-vec 0.1,y --beta 1",
     ["--alpha-vec", "'0.1,y'"]),
])
def test_bad_number_exit2_names_flag_and_value(args, named, capsys):
    assert cli.main(args.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert all(s in captured.err for s in named), captured.err


@pytest.mark.parametrize("args,message", [
    ("--theorem clique --n 10 --d 12", "need d+1 <= n"),
    ("--theorem clique --n 10 --d 10", "need d+1 <= n"),
    ("--theorem link --n 10 --t-size 1 --d 12", "d exceeds the room left by t"),
    ("--theorem link --n 10 --t-size 3 --d 8", "d exceeds the room left by t"),
    ("--theorem critical --n 10 --d 10", "need d+1 <= n"),
])
def test_bounds_top_component_beyond_n_exit2(args, message, capsys):
    assert cli.main(["bounds", *args.split(), "--p", "0.5"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", ["--theorem clique --n 10 --d 9",
                                  "--theorem link --n 10 --t-size 1 --d 9",
                                  "--theorem link --n 10 --t-size 3 --d 7"])
def test_bounds_top_component_that_fits_exit0(args, capsys):
    assert cli.main(["bounds", *args.split(), "--p", "0.5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 2


@pytest.mark.parametrize("reps", ["0", "1", "-5"])
def test_moments_too_few_replicates_exit2(reps, capsys, monkeypatch):
    from cliquestats import montecarlo as mc
    monkeypatch.setattr(mc, "_raw_chunk", lambda *a: pytest.fail("a replicate ran"))
    assert cli.main(["moments", "--kind", "critical", "--n", "8", "--d", "2", "--p", "0.5",
                     "--replicates", reps]) == 2
    assert "need at least 2 replicates" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    "--kind clique --n 8 --p 0.5",  # closed-form covariance
    "--kind critical --n 5 --d 2 --p 0.5",  # exact oracle
])
def test_moments_too_few_replicates_exit2_on_every_path(args, capsys, monkeypatch):
    from cliquestats import montecarlo as mc
    from cliquestats import moments as mo
    from cliquestats import oracle as orc
    for module, name in ((mc, "_raw_chunk"), (orc, "exact_moments"),
                         (mo, "statistic_cov_matrix")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work ran"))
    assert cli.main(["moments", *args.split(), "--replicates", "0"]) == 2
    assert "need at least 2 replicates" in capsys.readouterr().err


@pytest.mark.parametrize("args,flag", [
    ("bounds --theorem clique --n 10 --d 2 --p 0.5 --t-size 7", "--t-size"),
    ("bounds --theorem convex --d 2 --smooth-b 0.1 --t-size -3", "--t-size"),
    ("bounds --theorem ustat --k-vec 2 --alpha-vec 0.1 --beta 1 --t-size 1", "--t-size"),
    ("moments --kind critical --n 8 --d 2 --p 0.5 --t-size 2", "--t-size"),
    ("simulate --kind clique --n 8 --p 0.5 --replicates 5 --t-size 1", "--t-size"),
    ("moments --kind clique --n 10 --d 2 --p 0.5 --replicates 5", "--replicates"),
    ("moments --kind critical --n 5 --d 2 --p 0.5 --replicates 5", "--replicates"),  # oracle
    ("moments --kind critical --n 9 --d 1 --p 0.5 --replicates 5", "--replicates"),
    ("moments --kind link --n 9 --d 2 --p 0.5 --replicates 5", "--replicates"),
    ("moments --kind clique --n 4 --p 0.5 --master-seed 77", "--master-seed"),  # closed form
    ("moments --kind critical --n 5 --d 2 --p 0.5 --master-seed 77", "--master-seed"),  # oracle
    ("moments --kind critical --n 9 --d 1 --p 0.5 --master-seed 77", "--master-seed"),
    ("moments --kind critical --n 9 --d 1 --p 0.5 --replicates 5 --master-seed 7",
     "--replicates, --master-seed: read only where the off-diagonals are sampled"),
    # cli.BOUNDS_FLAGS: the flags of another theorem
    ("bounds --theorem convex --d 2 --smooth-b 3 --k-vec 2 --beta 1",
     "--k-vec, --beta: not read by --theorem convex"),
    ("bounds --theorem clique --n 40 --p 0.5 --smooth-b 3 --beta 2",
     "--smooth-b, --beta: not read by --theorem clique"),
    ("bounds --theorem critical --n 8 --p 0.5 --alpha-vec 0.1", "--alpha-vec"),
    ("bounds --theorem link --n 8 --p 0.5 --t-size 1 --k-vec 2", "--k-vec"),
    ("bounds --theorem ustat --k-vec 2 --alpha-vec 0.1 --beta 1 --smooth-b 2", "--smooth-b"),
    ("bounds --theorem ustat-no-x --k-vec 2 --alpha-vec 0.1 --beta 1 --smooth-b 2",
     "--smooth-b"),
    # --n and --p are read by the kinds alone
    ("bounds --theorem convex --d 2 --smooth-b 0.5 --n 40 --p 0.5",
     "--n, --p: not read by --theorem convex"),
    ("bounds --theorem ustat --k-vec 2 --alpha-vec 1 --beta 1 --n 40", "--n: not read"),
    ("bounds --theorem ustat-no-x --k-vec 2 --alpha-vec 1 --beta 1 --p 0.3",
     "--p: not read by --theorem ustat-no-x"),
    # --d is read by the kinds and convex alone
    ("bounds --theorem ustat --k-vec 2 --alpha-vec 1 --beta 1 --d 1",
     "--d: not read by --theorem ustat"),
    ("bounds --theorem ustat-no-x --k-vec 2 --alpha-vec 1 --beta 1 --n 7 --d 3",
     "--n, --d: not read by --theorem ustat-no-x"),
])
def test_a_flag_the_command_would_ignore_exits2_naming_it(args, flag, capsys, monkeypatch):
    from cliquestats import montecarlo as mc
    from cliquestats import moments as mo
    from cliquestats import oracle as orc
    for module, name in ((mc, "_raw_chunk"), (orc, "exact_moments"),
                         (mo, "statistic_cov_matrix")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work ran"))
    assert cli.main(args.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + flag) and captured.err.count("\n") == 1

