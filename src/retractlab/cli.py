"""Command-line driver.

Subcommands:
    check <file>          exit 0 iff the map is valid and idempotent
    analyze <file>        full retract report (text or --json)
    gen                   emit reproducible random idempotent problem files

`check` and `analyze` reject an input with the same one-line message on
stderr: "invalid: ..." when a Laurent variable does not map to a unit, and
"not idempotent: ..." naming the first variable with phi²(x) != phi(x).

Exit codes: 0 success, 1 invalid/not idempotent, 2 parse error (of a problem
file, a ring header of more than MAX_VARIABLES = 1000 variables included,
or of `gen` arguments: the `--domain` spelling, sizes outside
0 <= r <= d <= n or with n outside [1, 1000], a negative complexity, a
count below 1), unreadable input (missing, a directory, not UTF-8) or
unwritable output, 3 internal certificate failure.
"""

import argparse
import os
import sys
from functools import lru_cache

from .endo import (require_idempotent, InvalidEndomorphismError,
                   NotIdempotentError)
from .engine import analyze, CertificateError
from .generator import GeneratorSpec, problem_text
from .grammar import parse_domain, parse_problem, render_report, ParseError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_CERTIFICATE = 3


class InputReadError(Exception):
    pass


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputReadError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputReadError("%s is not UTF-8 text: %s"
                             % (path, exc)) from None


def _cmd_check(args):
    _, phi = parse_problem(_load(args.file))
    require_idempotent(phi)
    print("ok: valid and idempotent")
    return EXIT_OK


def _cmd_analyze(args):
    _, phi = parse_problem(_load(args.file))
    report = analyze(phi)
    out = render_report(report, "json" if args.json else "text")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _cmd_gen(args):
    domain = parse_domain(args.domain)
    if args.count < 1:
        raise ParseError("--count must be at least 1, got %d" % args.count)

    # per-index seeds keep each emitted file reproducible on its own
    def spec(k):
        return GeneratorSpec(args.n, args.d, args.r, args.seed + k,
                             args.complexity, domain)

    try:
        spec(0)  # every index has the same sizes
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for k in range(args.count):
        text = problem_text(spec(k))
        if args.out_dir:
            path = os.path.join(args.out_dir, "problem_%04d.ring" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(path)
        else:
            sys.stdout.write("\n" + text if k else text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retractlab",
        description="Analyze idempotent endomorphisms of mixed "
                    "Laurent/polynomial rings and classify their retracts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate and test idempotency")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="full retract analysis")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="generate random idempotent instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--complexity", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--domain", default="QQ")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_gen)
    return parser


# built on the first call: parse_args leaves the parser as it found it and
# returns a fresh Namespace each time
_parser = lru_cache(maxsize=None)(build_parser)


def run_cli(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except InputReadError as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except NotIdempotentError as exc:
        print("not idempotent: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except InvalidEndomorphismError as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except CertificateError as exc:
        print("certificate failure: %s" % exc, file=sys.stderr)
        if exc.evidence:
            print("evidence: %s" % exc.evidence, file=sys.stderr)
        return EXIT_CERTIFICATE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
