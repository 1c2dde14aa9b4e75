"""Command-line front end.

Subcommands: moments | bounds | simulate | verify | morse-demo.
Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
Every report embeds the resolved run spec and the library version, so a rerun
of the same spec is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import bounds as bd
from . import moments as mo
from . import montecarlo as mc
from . import oracle as orc
from . import verify as vf
from .graphs import MAX_ENUM_VERTICES, Graph, GnpParams, sample_gnp
from .kinds import KINDS, statistic
from .morse import critical_counts_direct, lex_matching

SEED_ENV = "CLIQUESTATS_SEED"

# The verify flags each suite takes, by argparse dest, and the suite keyword
# each one sets; a suite missing here takes none of them.
VERIFY_FLAGS = {
    "oracle": {"n_max": "n_max"},
    "morse-equivalence": {"graphs": "random_graphs", "n": "random_n",
                          "seed": "seed", "threads": "threads"},
    "rates": {"replicates": "reps"},
    "oracle-mc": {"replicates": "reps"},
}
VERIFY_OPTS = sorted({f for flags in VERIFY_FLAGS.values() for f in flags})

# The bounds flags each theorem reads, by argparse dest; a kind reads --n, --p
# and --d.  A theorem that reads --d fills in 1 when it is absent, and the spec
# echoes it; the ustat theorems read no --d, so they refuse it and echo none.
BOUNDS_FLAGS = {"convex": ("d", "smooth_b"), "ustat": ("k_vec", "alpha_vec", "beta"),
                "ustat-no-x": ("k_vec", "alpha_vec", "beta")}


class UsageError(ValueError):
    pass


def _seed(args) -> int:
    """--master-seed, or the environment's seed when the flag is absent."""
    if args.master_seed is None:
        try:
            args.master_seed = int(os.environ.get(SEED_ENV, "0"))
        except ValueError:
            raise UsageError("%s must be an integer" % SEED_ENV) from None
    return args.master_seed


def _write(path, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, text: str | None = None):
    """Write the JSON report, which echoes the run spec, to -o, or to stdout;
    text, when given, goes to stdout in the JSON's place."""
    skip = {"func", "output"}
    spec = {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}
    payload = {"version": __version__, "spec": spec, **payload}
    out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        _write(args.output, out)
    if text or not args.output:
        _write(None, text + "\n" if text else out)


# ---------------------------------------------------------------------------


def _refuse(args, flags, why: str):
    """Exit 2 naming those of flags, argparse dests, that args gives, if any."""
    given = ["--" + f.replace("_", "-") for f in flags if getattr(args, f) is not None]
    if given:
        raise UsageError("%s: %s" % (", ".join(given), why))


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError("--%s is required here" % name.replace("_", "-"))


def cmd_moments(args) -> int:
    _need(args, "n", "p")
    if args.replicates is not None and args.replicates < 2:
        raise UsageError("need at least 2 replicates")
    stat = statistic(args.kind)
    sampled = stat.cov is None and args.d > 1 and args.n > MAX_ENUM_VERTICES
    if not sampled:
        _refuse(args, ("replicates", "master_seed"), "read only where the off-diagonals "
                "are sampled (no closed form, d > 1, n > %d)" % MAX_ENUM_VERTICES)
    _fixed_subset(args, stat)
    _seed(args)  # echoed in the spec
    offdiag = None
    if sampled:
        raw = mc.simulate_raw(mc.MCConfig(
            args.kind, args.n, args.p, args.d,
            20_000 if args.replicates is None else args.replicates, args.master_seed))
        offdiag = (mc.empirical_cov(raw).tolist(), "empirical")
    elif stat.cov is None and args.d > 1:
        em = orc.exact_moments(args.kind, args.n, args.p, args.d)
        offdiag = (em.cov, "exact-oracle")
    rep = mo.statistic_cov_matrix(args.kind, args.n, args.d, args.p,
                                  t_size=args.t_size, oracle_offdiag=offdiag)
    _emit(args, {"report": rep.as_dict()})
    return 0


def _fixed_subset(args, stat) -> tuple:
    """The link's fixed vertex subset {1, ..., --t-size}.  A kind that takes none,
    or a theorem that is no kind (stat None), refuses the flag; an absent
    --t-size is 1, which the spec echoes."""
    takes = stat is not None and stat.needs_t
    if args.t_size is not None and not takes:
        raise UsageError("--t-size is read only by a kind with a fixed subset")
    args.t_size = 1 if args.t_size is None else args.t_size
    return tuple(range(1, args.t_size + 1)) if takes else ()


def _number_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("%s: not a list of %ss: %r" % (flag, kind.__name__, text)) from None


def cmd_bounds(args) -> int:
    th = args.theorem
    reads = BOUNDS_FLAGS.get(th, ("n", "p", "d"))
    _refuse(args, [f for f in ("n", "p", "d", "smooth_b", "k_vec", "alpha_vec", "beta")
                   if f not in reads], "not read by --theorem " + th)
    if "d" in reads and args.d is None:
        args.d = 1
    stat = statistic(th) if th in KINDS else None
    t = _fixed_subset(args, stat)
    if stat is not None:
        _need(args, "n", "p")
        stat.check(args.n, args.d, t)
        pair = stat.bound(args.n, args.d, args.p, args.t_size)
        reports = [pair.smooth, pair.convex]
    elif th == "convex":
        if args.smooth_b is None:
            raise UsageError("--smooth-b required for the convex transfer")
        reports = [bd.convex_bound(args.d, args.smooth_b)]
    else:  # ustat or ustat-no-x: argparse refuses any other theorem
        if not args.k_vec or not args.alpha_vec or args.beta is None:
            raise UsageError("ustat bounds need --k-vec, --alpha-vec, --beta")
        k_vec = _number_list(args.k_vec, "--k-vec", int)
        alpha = _number_list(args.alpha_vec, "--alpha-vec", float)
        fn = bd.ustat_bound if th == "ustat" else bd.ustat_no_x_bound
        reports = [fn(k_vec, alpha, args.beta)]
    _emit(args, {"reports": [r.as_dict() for r in reports]})
    return 0


def cmd_simulate(args) -> int:
    _need(args, "n", "p")
    if args.check and args.format == "csv":
        raise UsageError("simulate --check does not take --format csv")
    stat = statistic(args.kind)
    cfg = mc.MCConfig(args.kind, args.n, args.p, args.d, args.replicates, _seed(args),
                      t=_fixed_subset(args, stat), standardization=args.standardization)
    if args.check:
        _emit(args, {"run": vf.matched_normal_report(cfg, threads=args.threads)})
        return 0
    raw = mc.simulate_raw(cfg, threads=args.threads)
    std = mc.standardize(raw, cfg)
    if args.format == "csv":
        header = ",".join(["T%d" % s for s in stat.sizes(cfg.d)]
                          + ["W%d" % (i + 1) for i in range(cfg.d)])
        lines = [header]
        for r in range(raw.shape[0]):
            lines.append(",".join("%.10g" % v for v in list(raw[r]) + list(std[r])))
        _write(args.output, "\n".join(lines) + "\n")
        return 0
    cov = mc.empirical_cov(std)
    _emit(args, {
        "moments": {"mean_raw": raw.mean(axis=0).tolist(),
                    "standardized_cov": cov.tolist(),
                    "standardization": cfg.standardization},
        "samples_standardized_head": std[:10].tolist(),
    })
    return 0


def cmd_verify(args) -> int:
    takes = VERIFY_FLAGS.get(args.suite, {})
    given = [f for f in VERIFY_OPTS if getattr(args, f) is not None]
    if args.threads == 1:  # the default, kept for the spec echo
        given.remove("threads")
    refused = [f for f in given if f not in takes]
    if refused:
        raise UsageError("suite %s does not take %s" % (
            args.suite, ", ".join("--" + f.replace("_", "-") for f in refused)))
    results = vf.run_suite(args.suite, **{takes[f]: getattr(args, f) for f in given})
    lines = [r.row() for r in results]
    ok = all(r.ok for r in results)
    payload = {"suite": args.suite, "gates": [vars(r) for r in results], "passed": ok}
    _emit(args, payload, text="\n".join(lines + ["", "suite %s: %s"
                                                 % (args.suite, "PASS" if ok else "FAIL")]))
    return 0 if ok else 1


def cmd_morse_demo(args) -> int:
    if args.d < 1 or (args.max_size is not None and args.max_size < 1):
        raise UsageError("--d and --max-size must be >= 1")
    if args.graph_file:
        _refuse(args, ("n", "p", "master_seed"), "read only when no --graph-file is given")
        with open(args.graph_file, encoding="utf-8") as fh:
            g = Graph.from_text(fh.read())
    else:  # absent --n and --p draw from G(8, 1/2)
        g = sample_gnp(GnpParams(8 if args.n is None else args.n,
                                 0.5 if args.p is None else args.p, _seed(args)))
    size_cap = args.max_size if args.max_size else min(g.n, args.d + 2)
    m = lex_matching(g, size_cap)
    crit = critical_counts_direct(g, min(args.d, g.n - 1))
    lines = [m.dump(), "",
             "critical counts (sizes 2..%d): %s" % (crit.d + 1, list(crit.counts))]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cliquestats",
        description="Counting statistics on random clique complexes: moments, "
                    "normal-approximation bounds, simulation, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=False)
        p.add_argument("--p", type=float, required=False)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--t-size", type=int, default=None)
        p.add_argument("-o", "--output", default=None)

    pm = sub.add_parser("moments", help="closed-form / oracle moment report")
    pm.add_argument("--kind", choices=KINDS, required=True)
    common(pm)
    pm.add_argument("--replicates", type=int, default=None,
                    help="empirical off-diagonal sample size (critical, n>6, d>1)")
    pm.add_argument("--master-seed", type=int, default=None)
    pm.set_defaults(func=cmd_moments)

    pb = sub.add_parser("bounds", help="explicit error-bound reports")
    pb.add_argument("--theorem",
                    choices=[*KINDS, "convex", "ustat", "ustat-no-x"],
                    required=True)
    common(pb)
    pb.add_argument("--smooth-b", type=float, default=None)
    pb.add_argument("--k-vec", default=None)
    pb.add_argument("--alpha-vec", default=None)
    pb.add_argument("--beta", type=float, default=None)
    pb.set_defaults(func=cmd_bounds, d=None)

    ps = sub.add_parser("simulate", help="seeded Monte Carlo sample dump")
    ps.add_argument("--kind", choices=KINDS, required=True)
    common(ps)
    ps.add_argument("--replicates", type=int, default=1000)
    ps.add_argument("--master-seed", type=int, default=None)
    ps.add_argument("--standardization", choices=["analytic", "empirical"],
                    default="analytic")
    ps.add_argument("--format", choices=["json", "csv"], default="json")
    ps.add_argument("--check", action="store_true",
                    help="emit the full matched-normal report with verdicts")
    ps.add_argument("--threads", type=int, default=1)
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=sorted(vf.SUITES) + ["all"], required=True)
    for flag in VERIFY_OPTS:
        pv.add_argument("--" + flag.replace("_", "-"), type=int,
                        default=1 if flag == "threads" else None)
    pv.add_argument("-o", "--output", default=None)
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("morse-demo", help="print a lexicographical matching")
    pd.add_argument("--graph-file", default=None)
    pd.add_argument("--n", type=int, default=None)
    pd.add_argument("--p", type=float, default=None)
    pd.add_argument("--d", type=int, default=2)
    pd.add_argument("--max-size", type=int, default=None)
    pd.add_argument("--master-seed", type=int, default=None)
    pd.add_argument("-o", "--output", default=None)
    pd.set_defaults(func=cmd_morse_demo)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # UsageError is a ValueError
    except (ValueError, OSError, OverflowError, ZeroDivisionError, MemoryError) as exc:
        given = " ".join(sys.argv[1:] if argv is None else argv)
        if isinstance(exc, ArithmeticError):  # raised inside a formula: echo the values given
            exc = "%s: %s: %s" % (given, "overflow" if isinstance(exc, OverflowError)
                                  else "division by zero", exc)
        elif isinstance(exc, MemoryError):  # e.g. pair variates of a very large n
            exc = "%s: out of memory: %s" % (given, str(exc) or "allocation failed")
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
