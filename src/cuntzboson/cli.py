"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 domain error (e.g. alphabet violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from .boson import fock_word
from .branching import basis_lambda_j, basis_onetwov, basis_typej, enumerate_components
from .common import DomainError, ExprError
from .cuntz import RepSpec
from .embed import EmbeddingSpec, embed_generator, fock_word_in_ON, odometer_index, odometer_isomorphism, translate_word
from .expr import eval_on_ket, parse_expression
from .scalar import ONE
from .states import Ket
from .verify import SUITES, run_suite
from .words import EPWord, format_word, parse_word


def _parse_rep(text: str, alphabet: int | None) -> RepSpec:
    if "|" not in text:
        raise ValueError(f"representation syntax is '|cycle', got {text!r}")
    prefix_text, cycle_text = text.split("|", 1)
    if prefix_text.strip():
        raise ValueError(f"representation words have empty prefix, got {text!r}")
    return RepSpec(parse_word(cycle_text), alphabet=alphabet)


def _parse_occupations(text: str) -> dict[int, int]:
    occ: dict[int, int] = {}
    text = text.strip()
    if not text:
        return occ
    for chunk in text.split(","):
        mode_text, _, count_text = chunk.partition(":")
        mode, count = int(mode_text), int(count_text)
        if mode < 1 or count < 0:
            raise ValueError(f"bad occupation entry {chunk!r}")
        if count:
            occ[mode] = occ.get(mode, 0) + count
    return occ


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def cmd_act(args: argparse.Namespace) -> int:
    terms = parse_expression(args.expr)
    if args.model == "odometer":
        spec = RepSpec((1,))
        if args.state == "omega":
            index = 1
        elif args.state.startswith("e") and args.state[1:].isdigit():
            index = int(args.state[1:])
        else:
            raise ValueError(f"odometer states are e<n>, got {args.state!r}")
        result = eval_on_ket(spec, terms, Ket.basis(odometer_isomorphism(index)))
        pairs = sorted((odometer_index(w), c) for w, c in result.items())
        if args.json:
            print(json.dumps({"terms": [
                {"index": i, "coeff": c.to_json_terms()} for i, c in pairs]},
                indent=2, sort_keys=True))
        elif not pairs:
            print("0")
        else:
            for i, c in pairs:
                coeff = f"({c})" if len(c.terms()) > 1 else str(c)
                print(f"{coeff} * e{i}")
        return 0
    spec = _parse_rep(args.rep, args.N)
    if args.state == "omega":
        state = spec.gp_vector()
    else:
        state = Ket.basis(EPWord.parse(args.state))
    result = eval_on_ket(spec, terms, state)
    print(json.dumps(result.to_json(), indent=2, sort_keys=True) if args.json else result)
    return 0


def cmd_branch(args: argparse.Namespace) -> int:
    spec = _parse_rep(args.rep, args.N)
    components = enumerate_components(spec, modes=args.modes)
    if args.json:
        print(json.dumps({
            "representation": str(spec),
            "components": [
                {
                    "vacuum": str(c.vacuum_label),
                    "pattern": list(c.occupation_pattern),
                    "classification": c.classification,
                    "verified": [
                        {"name": chk.name, "passed": chk.passed, "detail": chk.detail}
                        for chk in c.verified_conditions
                    ],
                }
                for c in components
            ],
        }, indent=2, sort_keys=True))
        return 0
    print(f"{spec} restricted to the ladder algebra: {len(components)} component(s)")
    for c in components:
        for line in c.lines():
            print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(
        args.suite, modes=args.modes, samples=args.samples, seed=args.seed,
        cutoff=args.cutoff, exps=args.exps, N=args.N, index_bound=args.index_bound)
    if args.json:
        print(json.dumps({
            "suite": result.name, "total": result.total, "passed": result.passed,
            "failures": result.failures}, indent=2, sort_keys=True))
    else:
        print(result.summary())
        for failure in result.failures:
            print(f"  first failures: {failure}")
    return 0 if result.ok else 1


def cmd_fock(args: argparse.Namespace) -> int:
    occ = _parse_occupations(args.occ)
    coeff, word = fock_word(occ)
    if args.json:
        print(json.dumps({"word": list(word), "coefficient": coeff.to_json_terms()},
                         indent=2, sort_keys=True))
    else:
        print(f"word: {format_word(word)}")
        print(f"coefficient: {coeff}")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    spec = EmbeddingSpec(args.N)
    if args.gen is not None:
        word = embed_generator(spec, args.gen)
        payload = {"generator": args.gen, "word": list(word)}
        text = f"s{args.gen} -> {format_word(word)}"
    elif args.word is not None:
        word = translate_word(spec, parse_word(args.word))
        payload = {"source": args.word, "word": list(word)}
        text = f"s_({args.word}) -> {format_word(word)}"
    elif args.occ is not None:
        occ = _parse_occupations(args.occ)
        coeff, _ = fock_word(occ)
        word = fock_word_in_ON(spec, occ)
        payload = {"occupations": {str(k): v for k, v in sorted(occ.items())},
                   "word": list(word), "coefficient": coeff.to_json_terms()}
        text = f"word: {format_word(word)}\ncoefficient: {coeff}"
    else:
        raise ValueError("embed needs one of --gen, --word, --occ")
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return 0


def cmd_bases(args: argparse.Namespace) -> int:
    if args.family == "lambda":
        labels = basis_lambda_j(args.j, args.modes)
        kets = [Ket.basis(w) for w in labels]
        rows = [f"|{w}>" for w in labels]
    else:
        if args.family == "typej":
            family = basis_typej(args.j, args.modes, args.exps)
            vacuum = Ket.basis(EPWord((), (args.j,)))
        else:
            family = basis_onetwov(args.modes, args.exps)
            vacuum = Ket.basis(EPWord((), (1, 2)))
        kets, rows = [], []
        for monomial, normalizer in family:
            kets.append(normalizer * monomial.apply(vacuum))
            norm_text = str(normalizer) if normalizer != ONE else "1"
            rows.append(f"{monomial}  normalizer {norm_text}")
    orthonormal = all(
        kets[i].inner(kets[j]).is_zero()
        for i in range(len(kets)) for j in range(i + 1, len(kets))
    ) and all(k.norm_squared() == ONE for k in kets)
    if args.json:
        print(json.dumps({
            "family": args.family, "size": len(rows), "orthonormal": orthonormal,
            "elements": rows}, indent=2, sort_keys=True))
    else:
        print(f"family {args.family}: {len(rows)} elements, orthonormal: {orthonormal}")
        for row in rows:
            print(row)
    return 0 if orthonormal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuntzboson",
        description="Exact ladder-operator calculus on permutative representations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

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
    branch.add_argument("--modes", type=int, default=6)
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
    emb.add_argument("--gen", type=int, default=None)
    emb.add_argument("--word", default=None)
    emb.add_argument("--occ", default=None)
    emb.add_argument("--json", action="store_true")
    emb.set_defaults(func=cmd_embed)

    bases = sub.add_parser("bases", help="generate and check an orthonormal family")
    bases.add_argument("--family", choices=("lambda", "typej", "onetwov"), required=True)
    bases.add_argument("--j", type=int, default=1)
    bases.add_argument("--modes", type=int, default=4)
    bases.add_argument("--exps", type=int, default=3)
    bases.add_argument("--json", action="store_true")
    bases.set_defaults(func=cmd_bases)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
