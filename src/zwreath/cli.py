"""Command-line front end for the polynomial-to-group-equation pipeline.

Rank lists are given outermost-base-first: `--ranks n,m` is the flat group
Z^n wr Z^m, and longer lists build the right-iterated product from the
outside in (the acting group is always the last entry).  All output is UTF-8
with LF line endings and is byte-identical across repeated invocations.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .equations import check_system, parse_assignment, parse_system, serialize_assignment, serialize_system
from .errors import Error, ParseError, PreconditionError
from .interp import IteratedReduction, compile_iterated, spec_for_ranks
from .laurent import INFINITY, aug_valuation
from .lexer import TokenStream, is_int
from .reduction import _membership_poly, parse_intpoly
from .wreath import lcs_rank

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _parse_ints(text, what):
    """Comma-separated integers with optional signs, ASCII digits only.

    A malformed list is reported with the whole text; an integer too long
    to convert keeps the lexer's own error, which names the digit limit.
    """
    tokens = TokenStream(text)
    for pos, token in enumerate(tokens.tokens):
        if is_int(token):
            tokens.int_at(pos)
    try:
        values = [tokens.signed_int()]
        while tokens.accept(","):
            values.append(tokens.signed_int())
        tokens.expect("")
    except ParseError as exc:
        raise ParseError(f"{what} must be comma-separated integers, got {text!r}",
                         exc.line, exc.col) from None
    return tuple(values)


def _parse_ranks(text):
    ranks = _parse_ints(text, "ranks")
    if any(r < 1 for r in ranks):
        raise ParseError(f"ranks must be positive, got {text!r}")
    return ranks


def _parse_solution(text):
    return _parse_ints(text, "solution")


def _sample_count(text):
    """argparse type of `--samples`: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _write_output(render, path=None):
    """Write the text `render()` to the file `path`, or to stdout.

    The text is built whole before any of it is written.  `str()` refuses
    an integer of more digits than `sys.get_int_max_str_digits()` (4300 by
    default) with a ValueError, and the program's own readers refuse such an
    integer too, so output that holds one is a PreconditionError: nothing is
    written that `verify` or `extract` could not read back.
    """
    try:
        text = render()
    except ValueError:
        raise PreconditionError(
            f"the output holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the limit of the readers") from None
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _newlines(text):
    """`text` with universal newlines, as a file opened in text mode reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(path):
    """The UTF-8 text of the file at `path`, with universal newlines.

    A byte that is not UTF-8 is a ParseError at the line and column where
    the parsers would count it; the valid prefix is decoded only then.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        head = _newlines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"{path} is not UTF-8 text: byte 0x{data[exc.start]:02x}",
                         head.count("\n") + 1, len(head) - head.rfind("\n")) from None


def _poly_and_spec(args):
    return parse_intpoly(args.poly), spec_for_ranks(_parse_ranks(args.ranks))


def _cmd_compile(args):
    system = compile_iterated(*_poly_and_spec(args)).system
    _write_output(lambda: serialize_system(system), args.output)
    return EXIT_OK


def _cmd_witness(args):
    # Witnessing needs no compiled system, so none is built.
    asg = IteratedReduction(*_poly_and_spec(args)).witness(_parse_solution(args.solution))
    _write_output(lambda: serialize_assignment(asg), args.output)
    return EXIT_OK


def _cmd_verify(args):
    spec = spec_for_ranks(_parse_ranks(args.ranks))
    system = parse_system(_read(args.system), spec)
    assignment = parse_assignment(_read(args.assignment), spec)
    report = check_system(system, assignment, spec)
    failed = set(report.failures)
    for idx in range(len(system.equations)):
        verdict = "FAIL" if idx in failed else "ok"
        print(f"equation {idx + 1}: {verdict}")
    if report.ok:
        print(f"satisfied: all {len(system.equations)} equations hold")
        return EXIT_OK
    print(f"unsatisfied: {len(report.failures)} of {len(system.equations)} equations fail")
    return EXIT_UNSATISFIED


def _cmd_oracle(args):
    f = parse_intpoly(args.poly)
    ranks = _parse_ranks(args.ranks)
    spec_for_ranks(ranks)  # the same rank-list check as the other subcommands
    z = _parse_solution(args.solution)
    e_f = _membership_poly(f, z, rank=ranks[-1])
    d = f.degree()
    val = aug_valuation(e_f)  # decides the verdict as `oracle_ef` does, computed once
    val_text = "INFINITY" if val == INFINITY else str(val)
    verdict = f">= {d + 1}: solution" if val >= d + 1 else f"< {d + 1}: NOT a solution"
    _write_output(lambda: f"e_f = {e_f}\nvaluation {val_text} {verdict}\n")
    return EXIT_OK


def _cmd_extract(args):
    f, spec = _poly_and_spec(args)
    assignment = parse_assignment(_read(args.assignment), spec)
    z = IteratedReduction(f, spec).extract_solution(assignment)  # builds no system
    print(",".join(str(v) for v in z))
    return EXIT_OK


def _cmd_lcs_rank(args):
    ranks = _parse_ranks(args.ranks)
    if len(ranks) != 2:
        # A single rank names no group (malformed, as for every subcommand);
        # an iterated rank list is well formed but has no formula here.
        error = ParseError if len(ranks) < 2 else PreconditionError
        raise error("lcs-rank is defined for exactly two ranks")
    rank = lcs_rank(args.i, spec_for_ranks(ranks))
    _write_output(lambda: f"{rank}\n")
    return EXIT_OK


def _cmd_selftest(args):
    # Imported here, so that no other subcommand pays for loading the suites.
    from .selftest import run_all

    ok = run_all(samples=args.samples, seed=args.seed)
    return EXIT_OK if ok else EXIT_UNSATISFIED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zwreath",
        description="Wreath products of free abelian groups and the reduction "
                    "from integer polynomial equations to group-equation systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_ranks(p):
        p.add_argument("--poly", required=True, help="integer polynomial, e.g. 'z1^2*z2 - 3'")
        p.add_argument("--ranks", required=True,
                       help="comma-separated ranks, outermost base first (e.g. 1,1)")

    p = sub.add_parser("compile", help="compile a polynomial to a group-equation system")
    add_poly_ranks(p)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("witness", help="build a satisfying assignment from an integer root")
    add_poly_ranks(p)
    p.add_argument("--solution", required=True, help="comma-separated root, e.g. '2' or '2,3'")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="check an assignment against a system file")
    p.add_argument("--ranks", required=True)
    p.add_argument("--system", required=True, help="system file")
    p.add_argument("--assignment", required=True, help="assignment file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="evaluate the membership polynomial for a candidate root")
    add_poly_ranks(p)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("extract", help="read the integer root off a satisfying assignment")
    add_poly_ranks(p)
    p.add_argument("--assignment", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("lcs-rank", help="rank of a lower-central-series quotient")
    p.add_argument("--ranks", required=True)
    p.add_argument("--i", type=int, required=True, dest="i", help="series index, >= 2")
    p.set_defaults(func=_cmd_lcs_rank)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--samples", type=_sample_count, default=None,
                   help="samples per suite (default: per-suite values)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
