"""Command-line front end.

Subcommands: verify (suite runner), show (object printers), qbg export,
alcove list, ic, solve-system.  Exit code 0 means all checks passed, 1
means a check failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import alcove, ichevalley, qbg, qkpres, relations, semimod, verify
from .rings import ConfigError
from .weylc import SignedPerm, check_rank


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _variant(text):
    """'3' means the upper variant at k=3, '3bar' the barred one."""
    body = text.strip()
    kind = "upper"
    if body.endswith("bar"):
        kind, body = "barred", body[:-3]
    try:
        return kind, int(body)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected K or Kbar with K an integer")


def _window(text):
    try:
        w = SignedPerm.parse(text)
        if w.n:
            return w
    except (ValueError, ConfigError):
        pass
    raise argparse.ArgumentTypeError(
        "expected a signed permutation like [2,-1], got %r" % text)


def _seq(text):
    """'theta:K' or 'gamma:K' as (name, K).  The range of K depends on
    --w, so theta_seq and gamma_seq check it."""
    name, _, k = text.partition(":")
    if name in ("theta", "gamma"):
        try:
            return name, int(k)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        "expected theta:K or gamma:K with K an integer, got %r" % text)


_CONFIG_FLAGS = {"n": "--n", "trunc": "--trunc", "mode": "--mode",
                 "suites": "--suite"}


def _read_config(path):
    """The verify flags that the file's `key = value` lines stand for."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    flags = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("bad config line: %r" % raw.strip())
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FLAGS:
            raise ConfigError("unknown config key %r" % key)
        flags.append("%s=%s" % (_CONFIG_FLAGS[key], value))
    return flags


# The largest --trunc.  A truncated series keeps up to one term per
# degree, so time and memory grow with trunc (verify --n 1 takes about
# 0.2 s and 19 MiB at 10,000, and 10 s and 386 MiB at 10^6), and every
# degree stays far below rings.MAX_EXPONENT.
MAX_TRUNC = 10_000


def _int_at_least(low, high=None):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer")
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d" % high)
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)
_trunc = _int_at_least(1, MAX_TRUNC)


def _suite_names(text):
    """'all' or a comma-separated list of suite names, kept as the text
    that the JSON report echoes."""
    bad = [s.strip() for s in text.split(",") if s.strip() not in verify.SUITES]
    if text != "all" and bad:
        raise argparse.ArgumentTypeError("unknown suite %r" % bad[0])
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qkc",
        description="verify and inspect the quantum K-ring constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--trunc", type=_trunc,
                   help="truncated mode: the Novikov degree at which the "
                        "semimod and qkpres series are cut (default 2n+2); "
                        "relations always cuts its t-polynomials at 2n+2, "
                        "and qbg, alcove and ic have no series")
    p.add_argument("--mode", choices=("truncated", "exact"),
                   default="truncated")
    p.add_argument("--suite", dest="suites", type=_suite_names,
                   metavar="SUITE", default="all",
                   help="suite name, comma-separated list, or 'all'")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("show", help="print an algebraic object")
    ssub = p.add_subparsers(dest="what", required=True)
    for what, text in (("f", "the element F_l"),
                       ("ff", "the module element FF_l"),
                       ("ideal", "the generators F_l - E_l"),
                       ("schubert", "a Schubert-class polynomial")):
        s = ssub.add_parser(what, help=text)
        s.add_argument("--n", type=_positive_int, required=True)
        if what in ("f", "ff"):
            s.add_argument("--l", type=_nonnegative_int, required=True)
        if what != "ideal":
            s.add_argument("--variant", type=_variant, default=("full", None),
                           required=what == "schubert")
        s.add_argument("--trunc", type=_trunc)
        s.add_argument("--json", action="store_true")

    p = sub.add_parser("qbg", help="quantum Bruhat graph utilities")
    qsub = p.add_subparsers(dest="qbg_command", required=True)
    q = qsub.add_parser("export", help="export the full graph")
    q.add_argument("--n", type=_positive_int, required=True)
    q.add_argument("--format", choices=("dot", "json"), default="json")

    p = sub.add_parser("alcove", help="alcove-model utilities")
    asub = p.add_subparsers(dest="alcove_command", required=True)
    a = asub.add_parser("list", help="list admissible subsets")
    a.add_argument("--w", type=_window, required=True,
                   help='window notation, e.g. "[2,-1]"')
    a.add_argument("--seq", type=_seq, required=True,
                   help="theta:K or gamma:K")
    a.add_argument("--json", action="store_true")

    p = sub.add_parser("ic", help="evaluate the inverse Chevalley formula")
    p.add_argument("--w", type=_window, required=True,
                   help='window notation, e.g. "[2,3,-1]"')
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve-system", help="solve the relation system")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_verify(args):
    n, mode, suite = args.n, args.mode, args.suites
    names = (verify.SUITES if suite == "all"
             else [s.strip() for s in suite.split(",")])
    if "qbg" in names:
        check_rank(n)  # before any suite runs
    reports = [verify.run_suite(name, n, mode, args.trunc) for name in names]
    ok = all(r.ok for r in reports)
    if args.json:
        command = "verify --n %d --mode %s --suite %s" % (n, mode, suite)
        payload = {
            "command": command,
            "status": "pass" if ok else "fail",
            "reports": [r.to_json(timings=args.timings) for r in reports],
        }
        sys.stdout.write(_json_dumps(payload))
    else:
        for r in reports:
            print(r.render(timings=args.timings))
        print("overall: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _laurent_json(p):
    return [{"z": list(exps), "coeff": c.render()}
            for exps, c in p.sorted_terms()]


def _cmd_show(args):
    n = args.n
    if args.what == "ideal":
        gens = qkpres.ideal_generators(n, args.trunc)
        text = "\n".join("F_%d - E_%d: %s" % (l, l, g.render())
                         for l, g in enumerate(gens, start=1))
        payload = [_laurent_json(g) for g in gens]
    elif args.what == "ff":
        obj = semimod.ff(n, args.l, *args.variant, args.trunc)
        text = obj.render()
        payload = [{"w": w.render(), "lam": list(lam), "coeff": c.render()}
                   for (w, lam), c in obj.sorted_terms()]
    else:
        if args.what == "f":
            obj = qkpres.f_poly(n, args.l, *args.variant, args.trunc)
        else:
            variant, k = args.variant
            obj = qkpres.schubert_poly(n, k, variant, args.trunc)
        text = obj.render()
        payload = _laurent_json(obj)
    if args.json:
        sys.stdout.write(_json_dumps(payload))
    else:
        print(text)
    return 0


def _cmd_alcove(args):
    name, k = args.seq
    make = alcove.theta_seq if name == "theta" else alcove.gamma_seq
    fam = alcove.admissible_subsets(args.w, make(args.w.n, k))
    if args.json:
        payload = [{"positions": list(a.positions), "end": a.end.render(),
                    "down": list(a.down)} for a in fam]
        sys.stdout.write(_json_dumps(payload))
    else:
        for a in fam:
            print("%s  end=%s  down=(%s)" % (
                a.render(), a.end.render(),
                ",".join(str(x) for x in a.down)))
    return 0


def _cmd_ic(args):
    value = ichevalley.inverse_chevalley(args.w, args.m)
    if args.json:
        sys.stdout.write(_json_dumps(value.to_json()))
    else:
        print(value.render())
    return 0


def _cmd_solve(args):
    n = args.n
    expected = tuple(relations.elementary_E(n, l) for l in range(n + 1))
    try:
        solution, location = relations.solve_system(n), ""
    except relations.SolverError as exc:  # a check failure, not bad input
        solution, location = (), str(exc)
    ok = solution == expected
    if args.json:
        payload = {
            "n": n,
            "status": "pass" if ok else "fail",
            "solution": [x.render() for x in solution],
        }
        if location:
            payload["location"] = location
        sys.stdout.write(_json_dumps(payload))
    else:
        if location:
            print("FAIL solve-system  [%s]" % location)
        for l, x in enumerate(solution):
            mark = "PASS" if x == expected[l] else "FAIL"
            print("%s F_%d = %s" % (mark, l, x.render()))
    return 0 if ok else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.config:
                # the file's flags go first, so the command line wins
                args = parser.parse_args(
                    argv[:1] + _read_config(args.config) + argv[1:])
            return _cmd_verify(args)
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "qbg":
            edges = qbg.build_graph(args.n)
            sys.stdout.write(qbg.export(edges, args.format))
            return 0
        if args.command == "alcove":
            return _cmd_alcove(args)
        if args.command == "ic":
            return _cmd_ic(args)
        return _cmd_solve(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
