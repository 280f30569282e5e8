"""Command-line front end.

Subcommands cover every library operation plus a one-shot ``verify`` that
runs the whole battery of cross-checks over a range of moduli.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 a word outside the subgroup.
"""

import argparse
import json
import os
import re
import sys

from . import stallings, words
from .words import Alphabet, ParseError, format_runs, omega, parse_word

DEFAULT_CAP = 8
DEFAULT_N_MAX = 100
DEFAULT_D_MAX = 12
# verify's recurrence reads omega_n off the bracket's node list, whose sums
# grow a bit per n (0.3 s at n = 250, d <= 24); the rest hold for every n
RECURRENCE_N_CAP = 8
# witness spells, rewrites and walks the 2^m + 2 letters of omega_(m-2), so
# a run doubles per step in m (1.0-1.5 s at m = 20 on 2 vCPUs)
MAX_WITNESS_M = 20
# a verify battery up to d_max grows fastest in char_poly's big-integer
# determinant per d (the rest is about d_max^2): 0.8-0.9 s at 200 on 2 vCPUs
MAX_VERIFY_D = 200


def _env_cap():
    """The weight cap from FGLAB_MAGNUS_CAP, or DEFAULT_CAP when it is unset."""
    text = os.environ.get("FGLAB_MAGNUS_CAP")
    if text is None:
        return DEFAULT_CAP
    try:
        return _positive(1, _max_cap)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError("FGLAB_MAGNUS_CAP must be an integer in 1..%d, got %r"
                         % (_max_cap(), text)) from None


def _max_cap():
    """magnus.MAX_CAP; magnus is imported only by the commands that use it."""
    from . import magnus
    return magnus.MAX_CAP


def _alphabet_arg(text):
    return Alphabet(name.strip() for name in text.split(","))


def _infer_alphabet(text):
    return Alphabet(dict.fromkeys(words._NAME_RE.findall(text)) or ("x", "y"))


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def cmd_reduce(args):
    text = str(parse_word(args.word, _alphabet_arg(args.alphabet)))
    _emit(args, {"word": text}, text)
    return 0


def cmd_omega(args):
    text = str(omega(args.n))
    _emit(args, {"n": args.n, "word": text}, text)
    return 0


def _load_subgroup(path):
    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh)
        graph = stallings.from_json(desc)
    except KeyError as exc:
        raise ValueError("%s: subgroup description lacks the key %s"
                         % (path, exc)) from None
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply" % path) from None
    preferred = None
    if "kernel" in desc:
        d, f = desc["kernel"]["d"], desc["kernel"]["f"]
        preferred = next(
            (name for name in desc["alphabet"] if f.get(name, 0) % d == 1), None)
    return graph, preferred


def cmd_subgroup(args):
    wants_word = args.query in ("contains", "rewrite")
    if wants_word != (args.word is not None):
        raise ParseError("%s %s word argument"
                         % (args.query, "needs a" if wants_word else "takes no"))
    graph, preferred = _load_subgroup(args.file)

    if args.query == "index":
        idx = stallings.index(graph)
        value = "infinite" if idx is stallings.INFINITE else idx
        _emit(args, {"index": value}, str(value))
        return 0
    if args.query == "normal":
        normal = stallings.is_normal(graph)
        _emit(args, {"normal": normal}, str(normal).lower())
        return 0

    if wants_word:
        word = parse_word(args.word, graph.alphabet)

    if args.query == "contains":
        ok = stallings.contains(graph, word)
        _emit(args, {"contains": ok}, str(ok).lower())
        return 0

    transversal = stallings.schreier_transversal(graph, preferred=preferred)
    basis = stallings.schreier_basis(graph, transversal)
    if args.query == "basis":
        entries = [(name, format_runs(graph.alphabet, basis.runs(i)))
                   for i, name in enumerate(basis.alphabet)]
        _emit(args, {"basis": [{"name": n, "word": w} for n, w in entries]},
              "\n".join("%s = %s" % e for e in entries))
        return 0
    text = str(stallings.rewrite(graph, transversal, basis, word))
    _emit(args, {"rewrite": text}, text)
    return 0


def cmd_weight(args):
    from . import magnus
    alphabet = (_alphabet_arg(args.alphabet) if args.alphabet
                else _infer_alphabet(args.word))
    word = parse_word(args.word, alphabet)
    cap = _env_cap() if args.cap is None else args.cap
    value = magnus.weight_to_json(magnus.lcs_weight(word, cap))
    text = ">=%d" % value["at_least"] if isinstance(value, dict) else str(value)
    _emit(args, {"cap": cap, "weight": value}, text)
    return 0


def cmd_witness(args):
    from . import engine
    if args.m > MAX_WITNESS_M:
        raise ValueError("m must be at most %d, got %d (the witness word has "
                         "2^m + 2 letters)" % (MAX_WITNESS_M, args.m))
    try:
        payload = engine.witness(args.d, args.m).to_dict()
    except engine.VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1
    human = "wrote %s" % args.out
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif not args.json:
        human = json.dumps(payload, sort_keys=True, indent=2)
    _emit(args, payload, human)
    return 0


def cmd_verify(args):
    from . import engine
    n_max = args.n_max
    recurrence_n_max = min(n_max, RECURRENCE_N_CAP)
    # (name, check of d, reason when it returns False); a check may instead
    # raise VerificationError with its own reason.  Built on each call, so
    # the engine functions are looked up when verify runs.
    checks = [
        ("recurrence", lambda d: engine.verify_recurrence(
            engine.KernelSpec(d), recurrence_n_max), "recurrence mismatch"),
        ("char_poly", engine.char_poly_check, "char_poly mismatch"),
        ("eigen", engine.eigen_check, "eigen identities failed"),
        ("nonvanishing", engine.nonvanishing_check,
         "the all-n nonvanishing argument failed"),
    ]
    rows = []
    failure = None
    for d in range(2, args.d_max + 1):
        row = {"d": d}
        rows.append(row)
        # a row stops at its first failing check: the checks after it never
        # run, so they get no key
        for name, check, message in checks:
            try:
                row[name], reason = bool(check(d)), message
            except engine.VerificationError as exc:
                row[name], reason = False, str(exc)
            if not row[name]:
                failure = failure or (d, reason)
                break

    if args.json:
        print(json.dumps({"n_max": n_max, "recurrence_n_max": recurrence_n_max,
                          "results": rows, "ok": failure is None},
                         sort_keys=True, separators=(",", ":")))
    else:
        names = [name for name, _, _ in checks]
        cells = {True: "pass", False: "FAIL", None: "skip"}
        print("d   " + "  ".join("%-12s" % n for n in names))
        for row in rows:
            print("%-3d " % row["d"]
                  + "  ".join("%-12s" % cells[row.get(n)] for n in names))
        if failure:
            print("FAILED at d=%d: %s" % failure)
        else:
            print("all checks passed for 2 <= d <= %d: recurrence for n <= %d; "
                  "char_poly, eigen and nonvanishing for all n"
                  % (args.d_max, recurrence_n_max))
    return 0 if failure is None else 1


def _positive(kind, most=None):
    def convert(text):
        # ASCII digits, as in word exponents: int() also reads other Unicode
        # digits, underscores, a plus sign and surrounding spaces
        if not re.fullmatch("-?[0-9]+", text):
            raise ValueError(text)
        value = int(text)
        if value < kind:
            raise argparse.ArgumentTypeError("must be >= %d" % kind)
        if most is not None and value > most():
            raise argparse.ArgumentTypeError("must be <= %d" % most())
        return value
    convert.__name__ = "int"   # argparse prints "invalid int value: ..."
    return convert


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fglab",
        description="Free-group toolkit: Stallings automata, Schreier "
                    "rewriting, Magnus weights, and witness certificates.")
    parser.add_argument("--json", action="store_true",
                        help="emit structured JSON instead of human output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("-a", "--alphabet", required=True,
                   help="comma-separated generator names")
    p.add_argument("word")

    p = sub.add_parser("omega", help="the witness word omega_n over {x, y}")
    p.add_argument("n", type=_positive(0))

    p = sub.add_parser("subgroup", help="queries on a subgroup description file")
    p.add_argument("query",
                   choices=["index", "normal", "contains", "rewrite", "basis"])
    p.add_argument("file", help="subgroup JSON file")
    p.add_argument("word", nargs="?")

    p = sub.add_parser("weight", help="lower-central-series weight of a word")
    p.add_argument("--cap", type=_positive(1, _max_cap),
                   help="truncation degree (default: FGLAB_MAGNUS_CAP or %d)"
                        % DEFAULT_CAP)
    p.add_argument("-a", "--alphabet",
                   help="generator names (default: inferred from the word)")
    p.add_argument("word")

    p = sub.add_parser("witness",
                       help="certificate: a word of F_m outside [G, G]")
    p.add_argument("--d", type=_positive(2), required=True)
    p.add_argument("--m", type=_positive(2), required=True)
    p.add_argument("--out", help="write the certificate JSON to this file")

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--d-max", type=_positive(2, lambda: MAX_VERIFY_D),
                   default=DEFAULT_D_MAX)
    p.add_argument("--n-max", type=_positive(1), default=DEFAULT_N_MAX)

    return parser


_parser = None


def main(argv=None):
    """Run one CLI command on ``argv`` and return its exit code.

    In-process callers share one parser, built on the first call, and each
    command is looked up by name when it runs, so a patched ``cmd_*`` runs.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except stallings.NotInSubgroupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
