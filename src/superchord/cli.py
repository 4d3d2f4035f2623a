"""Command line front end.

Subcommands: ws (weight of a diagram), z (integral of a word), wz
(fused weight-system evaluation), lg (Links-Gould series), rt
(Reshetikhin-Turaev evaluation), verify (named identity suites).
Each subcommand reads fixed kinds of file, whatever their suffix: ws a
.cd diagram; z, wz and lg a .tw word; rt a .tw word and, with --data,
.ribbon data.  verify reads no file.
"""

import argparse
import json
import sys

from .associator import MAX_ORDER, check_order
from .jsonio import (
    load_diagram, load_ribbon, load_word, scalar_to_json, series_to_json,
    zvalue_to_json)
from .kontsevich import lg_invariant, wz_eval, z_eval
from .ribbon import ribbon_trivial, rt_invariant
from .scalars import AlphaScalar
from .verify import LEAST_ORDER, SUITES, run_all, run_suite
from .weightsys import SYSTEMS, named_system, weight_system


_ALG_REP = {("gl%d_%d" % mn, rep): name
            for name, (mn, rep, _tensor) in SYSTEMS.items()}


def _system_name(args):
    if getattr(args, "algebra", None) or getattr(args, "rep", None):
        key = (args.algebra or "gl2_1", args.rep or "defining")
        if key not in _ALG_REP:
            raise ValueError("no weight system for algebra %s with rep %s"
                             % key)
        return _ALG_REP[key]
    return args.system


def _poly_text(p):
    parts = []
    for k, c in enumerate(p.c):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("%s a" % c)
        else:
            parts.append("%s a^%d" % (c, k))
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def scalar_text(v):
    if isinstance(v, AlphaScalar):
        num = _poly_text(v.num)
        if v.den.degree() > 0:
            return "(%s) / (%s)" % (num, _poly_text(v.den))
        return num
    return str(v)


def _series_lines(s):
    return ["h^%d: %s" % (m, scalar_text(s.coeff(m)))
            for m in range(s.ring.order + 1)]


def _chords_text(d):
    return " ".join("%d:%d-%d:%d" % (a + b) for a, b in d.chords) or "(none)"


def _emit_scalar(value, fmt):
    if fmt == "json":
        print(json.dumps(scalar_to_json(value)))
    else:
        print(scalar_text(value))


def _emit_series(value, fmt):
    if fmt == "json":
        print(json.dumps(series_to_json(value), indent=2))
    else:
        for line in _series_lines(value):
            print(line)


def _cmd_ws(args):
    d = load_diagram(args.file)
    _emit_scalar(weight_system(*named_system(args.system))(d), args.format)
    return 0


def _cmd_z(args):
    z = z_eval(load_word(args.file), args.order)
    if args.format == "json":
        print(json.dumps(zvalue_to_json(z), indent=2))
    else:
        for enc in sorted(z.terms, key=lambda e: (len(e[1]), e)):
            d = z.reps[enc]
            print("h^%d  %s  %s" % (len(enc[1]),
                                    scalar_text(z.terms[enc]),
                                    _chords_text(d)))
    return 0


def _cmd_wz(args):
    word = load_word(args.file)
    if not word.is_closed:
        raise ValueError("wz prints series for closed words only")
    rep, tv = named_system(_system_name(args))
    _emit_series(wz_eval(word, rep, tv, args.order), args.format)
    return 0


def _cmd_lg(args):
    _emit_series(lg_invariant(load_word(args.file), args.order), args.format)
    return 0


def _cmd_rt(args):
    word = load_word(args.file)
    if not word.is_closed:
        raise ValueError("rt prints scalars for closed words only")
    data = load_ribbon(args.data) if args.data else ribbon_trivial()
    _emit_scalar(rt_invariant(word, data), args.format)
    return 0


def _cmd_verify(args):
    suite = args.suite_flag or args.suite
    if suite == "all":
        reports = run_all(order=args.order, seed=args.seed)
    else:
        reports = [run_suite(suite, order=args.order, seed=args.seed)]
    if args.format == "json":
        out = [{"suite": r.suite,
                "checks": [{"name": n, "ok": ok, "detail": d}
                           for n, ok, d in r.checks]} for r in reports]
        print(json.dumps(out, indent=2))
    else:
        for r in reports:
            for line in r.lines():
                print(line)
    return 0 if all(r.ok for r in reports) else 1


def _parser():
    top = argparse.ArgumentParser(
        prog="superchord",
        description="Exact weight systems, a truncated Kontsevich integral, "
                    "and ribbon evaluations for framed tangle words.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, order=True, flag="--word"):
        p.add_argument("file", nargs="?", help="input file")
        p.add_argument(flag, dest="file_flag",
                       help="same as the positional file")
        if order:
            p.add_argument("--order", type=int, default=3,
                           help="truncation degree, 0 to %d (default 3)"
                                % MAX_ORDER)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ws", help="weight of a .cd diagram")
    p.add_argument("--system", choices=("lg",) + tuple(SYSTEMS),
                   default="lg")
    common(p, order=False, flag="--diagram")
    p.set_defaults(run=_cmd_ws)

    p = sub.add_parser("z", help="integral of a .tw word")
    common(p)
    p.set_defaults(run=_cmd_z)

    p = sub.add_parser("wz", help="weight-system series of a closed .tw word")
    p.add_argument("--system", choices=tuple(SYSTEMS), default="gl21")
    p.add_argument("--algebra", choices=tuple(dict.fromkeys(
        alg for alg, _rep in _ALG_REP)))
    p.add_argument("--rep", choices=tuple(dict.fromkeys(
        rep for _alg, rep in _ALG_REP)))
    common(p)
    p.set_defaults(run=_cmd_wz)

    p = sub.add_parser("lg", help="Links-Gould series of a knot word")
    common(p)
    p.set_defaults(run=_cmd_lg)

    p = sub.add_parser("rt", help="ribbon evaluation of a closed .tw word")
    p.add_argument("--data", help=".ribbon data file (default: trivial)")
    common(p, order=False)
    p.set_defaults(run=_cmd_rt)

    suites = tuple(sorted(SUITES)) + ("all",)
    p = sub.add_parser("verify", help="run named identity suites")
    p.add_argument("suite", nargs="?", choices=suites, default="all")
    p.add_argument("--suite", dest="suite_flag", choices=suites)
    p.add_argument("--seed", type=int, default=0)
    least = ", ".join("%s from %d" % kv for kv in sorted(LEAST_ORDER.items()))
    p.add_argument("--order", "--degree", type=int, default=3,
                   help="truncation degree, 0 to %d (default 3); %s, all "
                        "from %d" % (MAX_ORDER, least,
                                     max(LEAST_ORDER.values())))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_verify)
    return top


def main(argv=None):
    top = _parser()
    args = top.parse_args(argv)
    if hasattr(args, "file"):
        args.file = args.file_flag or args.file
        if args.file is None:
            top.error("an input file is required")
    try:
        if hasattr(args, "order"):
            check_order(args.order)
        return args.run(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
