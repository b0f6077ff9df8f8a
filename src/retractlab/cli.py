"""Command-line driver.

Subcommands:
    check <file>          exit 0 iff the map is valid and idempotent
    analyze <file>        full retract report (text or --json)
    gen                   emit reproducible random idempotent problem files

`check` and `analyze` reject an input with the same one-line message on
stderr: "invalid: ..." when a Laurent variable does not map to a unit, and
"not idempotent: ..." naming the first variable with phi²(x) != phi(x).

Exit codes: 0 success or --help, 1 invalid/not idempotent, 2 parse error (of
a problem file, a ring header of more than MAX_VARIABLES = 1000 variables
and a number past Python's int digit limit included, or of `gen` arguments:
the `--domain` spelling, sizes outside 0 <= r <= d <= n or n outside
[1, 1000], a negative complexity, a count below 1), usage error (argparse's
usage line: unknown option, missing required `gen` option, non-integer
value), unreadable input (missing, a directory, not UTF-8) or unwritable
output, 3 internal certificate failure.
run_cli returns the code; argparse reads `--opt=value` and abbreviations.
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
    # utf-8-sig drops the byte-order mark that Windows editors write first
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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


# Every subcommand, declared once: (handler, help, positionals, options); an
# option is (flag, type, default): bool is store_true, _REQUIRED is required.
_REQUIRED = object()
_COMMANDS = {
    "check": (_cmd_check, "validate and test idempotency", ("file",), ()),
    "analyze": (_cmd_analyze, "full retract analysis", ("file",),
                (("--json", bool, False), ("--out", str, None))),
    "gen": (_cmd_gen, "generate random idempotent instances", (),
            (("--n", int, _REQUIRED), ("--d", int, _REQUIRED),
             ("--r", int, _REQUIRED), ("--seed", int, _REQUIRED),
             ("--complexity", int, 1), ("--count", int, 1),
             ("--domain", str, "QQ"), ("--out-dir", str, None))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retractlab",
        description="Analyze idempotent endomorphisms of mixed "
                    "Laurent/polynomial rings and classify their retracts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest in positionals:
            p.add_argument(dest)
        for flag, kind, default in options:
            if kind is bool:
                p.add_argument(flag, action="store_true")
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True)
            else:
                p.add_argument(flag, type=kind, default=default)
        p.set_defaults(func=func)
    return parser


# built on the first call: parse_args leaves the parser as it found it and
# returns a fresh Namespace each time
_parser = lru_cache(maxsize=None)(build_parser)


def _plain_table(command):
    """(positionals, {flag: (dest, type, default)}, defaults) of a command,
    built once per command from `_COMMANDS`."""
    func, _, positionals, spec = _COMMANDS[command]
    options = {flag: (flag[2:].replace("-", "_"), kind, default)
               for flag, kind, default in spec}
    defaults = {dest: default for dest, _, default in options.values()}
    defaults.update(command=command, func=func)
    return positionals, options, defaults


_PLAIN_TABLES = {command: _plain_table(command) for command in _COMMANDS}


def _read_plain(argv):
    """parse_args(argv)'s Namespace if argv is plain: exact option names,
    each value next, not starting with "-" and of its type, every required
    option and the right positionals.  Otherwise None: argparse reads it."""
    if not argv or argv[0] not in _PLAIN_TABLES:
        return None
    positionals, options, defaults = _PLAIN_TABLES[argv[0]]
    args = dict(defaults)
    found = []
    tokens = iter(argv[1:])
    for token in tokens:
        dest, kind, _ = options.get(token, (None, None, None))
        if kind is bool:
            args[dest] = True
        elif kind:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                args[dest] = kind(value)
            except ValueError:
                return None
        elif token.startswith("-"):
            return None
        else:
            found.append(token)
    if len(found) != len(positionals) or _REQUIRED in args.values():
        return None
    args.update(zip(positionals, found))
    return argparse.Namespace(**args)


def run_cli(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # a usage error (2) or help (0)
            return exc.code
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
