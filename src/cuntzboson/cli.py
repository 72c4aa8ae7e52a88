"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 domain error (e.g. alphabet violations).  Each command returns its exit
code and its whole output: its text, or under ``--json`` a JSON payload that
``main`` serializes in the one JSON form.  ``main`` prints it only once the
command has finished, so a command that fails leaves standard output empty.

An argv that names a command is parsed once, by that command's own parser;
the top parser answers only an empty argv, help and an unknown command name
(perfbench cli-mix ``op_p50_ms`` 0.205 -> 0.165 ms, ten pairs at each of two
seeds, faster in all twenty).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .boson import Exponents, _as_exponents, fock_word
from .branching import basis_family, basis_size, enumerate_components
from .common import MAX_MODE, DomainError, ExprError, _past_int_text_limit, check_family_sizes, check_index
from .cuntz import RepSpec
from .embed import embed_generator, fock_word_in_ON, odometer_index, odometer_isomorphism, translate_word
from .expr import eval_on_ket, parse_expression
from .scalar import _grouped
from .states import Ket
from .verify import SUITES, SuiteResult, orthonormality_checks, run_suite
from .words import EPWord, format_word, parse_word


def _parse_rep(text: str, alphabet: int | None) -> RepSpec:
    if "|" not in text:
        raise ValueError(f"representation syntax is '|cycle', got {text!r}")
    prefix_text, cycle_text = text.split("|", 1)
    if prefix_text.strip():
        raise ValueError(f"representation words have empty prefix, got {text!r}")
    return RepSpec(parse_word(cycle_text), alphabet=alphabet)


def _parse_occupations(text: str) -> Exponents:
    pairs = []
    text = text.strip()
    for chunk in text.split(",") if text else ():
        try:
            mode, count = map(int, chunk.split(":"))
        except ValueError as exc:
            if _past_int_text_limit(exc):
                raise
            raise ValueError(f"bad occupation entry {chunk!r}: expected mode:count") from None
        if mode < 1:
            raise ValueError(f"bad occupation entry {chunk!r}: mode is below 1")
        if count < 0:
            raise ValueError(f"bad occupation entry {chunk!r}: count is negative")
        check_index(mode, "mode")
        pairs.append((mode, count))
    return _as_exponents(pairs)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        got = (f"one of more than {sys.get_int_max_str_digits()} decimal digits"
               if _past_int_text_limit(exc) else repr(text))
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {got}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def cmd_act(args: argparse.Namespace) -> tuple[int, str | dict]:
    terms = parse_expression(args.expr)
    if args.model == "odometer":
        spec = RepSpec((1,))
        if args.state == "omega":
            index = 1
        elif args.state.startswith("e") and args.state[1:].isascii() and args.state[1:].isdigit():
            index = int(args.state[1:])
        else:
            raise ValueError(f"odometer states are e<n>, got {args.state!r}")
        result = eval_on_ket(spec, terms, Ket.basis(odometer_isomorphism(index)))
        pairs = sorted((odometer_index(w), c) for w, c in result._amps.items())
        if args.json:
            return 0, {"terms": [{"index": i, "coeff": c.to_json_terms()} for i, c in pairs]}
        if not pairs:
            return 0, "0"
        return 0, "\n".join(f"{_grouped(c)} * e{i}" for i, c in pairs)
    spec = _parse_rep(args.rep, args.N)
    if args.state == "omega":
        state = spec.gp_vector()
    else:
        label = EPWord.parse(args.state)
        top = max(label.prefix + label.cycle)
        if args.N is not None and top > args.N:
            raise DomainError(f"state letter {top} exceeds alphabet bound {args.N}")
        state = Ket.basis(label)
    result = eval_on_ket(spec, terms, state)
    return 0, result.to_json() if args.json else str(result)


def cmd_branch(args: argparse.Namespace) -> tuple[int, str | dict]:
    spec = _parse_rep(args.rep, args.N)
    components = enumerate_components(spec, modes=args.modes)
    code = 0 if all(chk.passed for c in components for chk in c.verified_conditions) else 1
    if args.json:
        return code, {"representation": str(spec), "components": [{
            "vacuum": str(c.vacuum_label),
            "pattern": list(c.vacuum_label.cycle),
            "classification": c.classification,
            "verified": [chk._asdict() for chk in c.verified_conditions],
        } for c in components]}
    lines = [f"{spec} restricted to the ladder algebra: {len(components)} component(s)"]
    for c in components:
        lines.append(f"component vacuum |{c.vacuum_label}>  pattern ({format_word(c.vacuum_label.cycle)})"
                     f"  classification {c.classification}")
        lines += ["  " + chk.line() for chk in c.verified_conditions]
    return code, "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str | dict]:
    result = run_suite(
        args.suite, modes=args.modes, samples=args.samples, seed=args.seed,
        cutoff=args.cutoff, exps=args.exps, N=args.N, index_bound=args.index_bound)
    code = 0 if result.ok else 1
    if args.json:
        return code, {"suite": result.name, "total": result.total, "passed": result.passed,
                      "failures": [failure.line() for failure in result.failures]}
    return code, "\n".join([result.summary()]
                           + [f"  first failures: {failure.line()}" for failure in result.failures])


def cmd_fock(args: argparse.Namespace) -> tuple[int, str | dict]:
    occ = _parse_occupations(args.occ)
    coeff, word = fock_word(occ)
    if args.json:
        return 0, {"word": list(word), "coefficient": coeff.to_json_terms()}
    return 0, f"word: {format_word(word)}\ncoefficient: {coeff}"


def cmd_embed(args: argparse.Namespace) -> tuple[int, str | dict]:
    spec = _parse_rep("|1", args.N)
    if args.gen is not None:
        check_index(args.gen, "generator index")
        word = embed_generator(spec, args.gen)
        payload = {"generator": args.gen, "word": list(word)}
        text = f"s{args.gen} -> {format_word(word)}"
    elif args.word is not None:
        source = parse_word(args.word)
        for m in source:
            check_index(m, "generator index")
        length = sum((m - 1) // (args.N - 1) + 1 for m in source)  # len(embed_generator(spec, m))
        if length > MAX_MODE:
            raise DomainError(f"the O_{args.N} word would have {length} letters, more than the largest "
                              f"supported word length MAX_MODE = {MAX_MODE}")
        word = translate_word(spec, source)
        payload = {"source": args.word, "word": list(word)}
        text = f"s_({args.word}) -> {format_word(word)}"
    else:
        occ = _parse_occupations(args.occ)
        coeff, _ = fock_word(occ)
        word = fock_word_in_ON(spec, occ)
        payload = {"occupations": {str(k): v for k, v in occ},
                   "word": list(word), "coefficient": coeff.to_json_terms()}
        text = f"word: {format_word(word)}\ncoefficient: {coeff}"
    return 0, payload if args.json else text


def cmd_bases(args: argparse.Namespace) -> tuple[int, str | dict]:
    check_family_sizes([basis_size(args.family, args.j, args.modes, args.exps)],
                       f"bases --family {args.family}")
    elements, kets = basis_family(args.family, args.j, args.modes, args.exps)
    if args.family == "lambda":
        rows = [f"|{w}>" for w in elements]
    else:
        rows = [f"{monomial}  normalizer {normalizer}" for monomial, normalizer in elements]
    checks = SuiteResult(args.family)
    orthonormality_checks(checks, args.family, kets)
    orthonormal = checks.ok
    code = 0 if orthonormal else 1
    if args.json:
        return code, {"family": args.family, "size": len(rows), "orthonormal": orthonormal,
                      "elements": rows}
    return code, "\n".join(
        [f"family {args.family}: {len(rows)} elements, orthonormal: {orthonormal}"] + rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves nothing on it, since
    ``parse_args`` returns a fresh ``Namespace``, every default is immutable and
    help and usage text read the terminal width when they are formatted.
    ``parser.subcommands`` maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="cuntzboson",
        description="Exact ladder-operator calculus on permutative representations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    act = sub.add_parser("act", help="apply an operator expression to a state")
    act.add_argument("--rep", default="|1", help="representation cycle, e.g. '|1,2'")
    act.add_argument("--N", type=int, default=None, help="finite alphabet bound")
    act.add_argument("--expr", required=True)
    act.add_argument("--state", default="omega", help="'omega', 'prefix|cycle', or e<n>")
    act.add_argument("--model", choices=("words", "odometer"), default="words")
    act.add_argument("--json", action="store_true")
    act.set_defaults(func=cmd_act)

    branch = sub.add_parser("branch", help="decompose a restriction into components")
    branch.add_argument("--rep", required=True)
    branch.add_argument("--N", type=int, default=None)
    branch.add_argument("--modes", type=_positive_int, default=6)
    branch.add_argument("--json", action="store_true")
    branch.set_defaults(func=cmd_branch)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--modes", type=_positive_int, default=6)
    verify.add_argument("--samples", type=_positive_int, default=50)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--cutoff", type=_positive_int, default=4)
    verify.add_argument("--exps", type=_positive_int, default=3)
    verify.add_argument("--N", type=int, default=2)
    verify.add_argument("--index-bound", type=_positive_int, default=512)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    fock = sub.add_parser("fock", help="occupation list -> word and coefficient")
    fock.add_argument("--occ", default="", help="comma list of mode:count")
    fock.add_argument("--json", action="store_true")
    fock.set_defaults(func=cmd_fock)

    emb = sub.add_parser("embed", help="translate into a finite Cuntz algebra")
    emb.add_argument("--N", type=int, required=True)
    source = emb.add_mutually_exclusive_group(required=True)
    source.add_argument("--gen", type=int, default=None)
    source.add_argument("--word", default=None)
    source.add_argument("--occ", default=None)
    emb.add_argument("--json", action="store_true")
    emb.set_defaults(func=cmd_embed)

    bases = sub.add_parser("bases", help="generate and check an orthonormal family")
    bases.add_argument("--family", choices=("lambda", "typej", "onetwov"), required=True)
    bases.add_argument("--j", type=int, default=1)
    bases.add_argument("--modes", type=_positive_int, default=4)
    bases.add_argument("--exps", type=_positive_int, default=3)
    bases.add_argument("--json", action="store_true")
    bases.set_defaults(func=cmd_bases)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = parser.subcommands.get(argv[0]) if argv else None
        if command is None:  # an empty argv, help or an unknown name
            args = parser.parse_args(argv)
        else:  # one pass, by the command's own parser, as the top parser would hand it on
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.func is cmd_act and args.model == "odometer" and (args.rep != "|1" or args.N is not None):
            parser.error("act --model odometer acts on the representation |1 of O_inf: "
                         "it takes no --N and no --rep other than '|1'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = args.func(args)
        text = json.dumps(output, indent=2, sort_keys=True) if args.json else output
    except ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        if _past_int_text_limit(exc):
            print(f"domain error: an integer has more than {sys.get_int_max_str_digits()} "
                  "decimal digits, the limit of Python's integer-text conversion", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (``| head -1``).  Point standard
        # output at the null device so the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
