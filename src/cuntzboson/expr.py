"""Parser and evaluator for operator expressions.

Grammar: an expression is a sum of products separated by ``+``/``-``; a
product juxtaposes factors, each a generator token ``s<k>`` / ``a<k>`` with
optional trailing ``*``, or a literal (``3``, ``3/2``, ``sqrt(2)``).
Example: ``s1 s2* + sqrt(2) s3``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .boson import _walk
from .common import ExprError, check_index
from .cuntz import RepSpec, apply_generator
from .embed import EmbeddingSpec, _embedded
from .scalar import ONE, RadicalScalar, sqrt_nat
from .states import Ket, _sum

_TOKEN = re.compile(
    r"\s*(?P<token>(?P<gen>[sa])(?P<index>\d+)(?P<star>\*?)"
    r"|(?P<sqrt>sqrt\(\s*(?P<radicand>\d+)\s*\))"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<sign>[+-]))"
)


@dataclass(frozen=True)
class Factor:
    kind: str  # 's' or 'a'
    index: int
    star: bool


@dataclass(frozen=True)
class Term:
    coeff: RadicalScalar
    factors: tuple[Factor, ...]


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == match.start():
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ExprError(f"unexpected character {text[bad]!r}", bad)
            break
        start = match.start("token")  # past the leading whitespace
        if match.group("gen"):
            index = int(match.group("index"))
            if index < 1:
                raise ExprError("generator indices are 1-based", start)
            check_index(index, "mode" if match.group("gen") == "a" else "generator index")
            tokens.append(("factor", Factor(match.group("gen"), index, bool(match.group("star"))), start))
        elif match.group("sqrt"):
            radicand = int(match.group("radicand"))
            if radicand < 1:
                raise ExprError("sqrt needs a radicand >= 1", start)
            tokens.append(("literal", sqrt_nat(radicand), start))
        elif match.group("number"):
            try:
                value = Fraction(match.group("number"))
            except ZeroDivisionError:
                raise ExprError("zero denominator", start) from None
            tokens.append(("literal", RadicalScalar.rational(value), start))
        else:
            tokens.append(("sign", match.group("sign"), start))
        pos = match.end()
    return tokens


def parse_expression(text: str) -> list[Term]:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression", 0)
    terms: list[Term] = []
    coeff = ONE
    factors: list[Factor] = []
    saw_content = False

    def flush(position: int) -> None:
        nonlocal coeff, factors, saw_content
        if not saw_content:
            raise ExprError("empty term", position)
        terms.append(Term(coeff, tuple(factors)))
        coeff, factors, saw_content = ONE, [], False

    for kind, value, position in tokens:
        if kind == "sign":
            if saw_content:
                flush(position)
            if value == "-":
                coeff = -coeff
        elif kind == "literal":
            coeff = coeff * value
            saw_content = True
        else:
            factors.append(value)
            saw_content = True
    flush(tokens[-1][2])
    return terms


def eval_on_ket(spec: RepSpec, terms: list[Term], state: Ket) -> Ket:
    """Apply the expression to a ket; factors in a product act right to left.

    Each maximal run of ladder tokens is one ladder product, which every label
    walks in one pass.  With a finite alphabet the run acts through the
    embedding block code, decoding each label once before the walk and
    encoding it once after; that requires every label to end in 1^inf.
    """
    images = []
    for term in terms:
        v, run = state, []
        for factor in reversed(term.factors):
            if factor.kind == "a":
                run.append((factor.index, 1 if factor.star else -1))
                continue
            if run:
                v, run = _apply_ladders(spec, run, v), []
            v = apply_generator(spec, factor.index, v, star=factor.star)
        images.append(term.coeff * (_apply_ladders(spec, run, v) if run else v))
    return _sum(images)


def _apply_ladders(spec: RepSpec, steps: list[tuple[int, int]], v: Ket) -> Ket:
    if spec.alphabet is None:
        return _walk(v, steps)
    return _embedded(EmbeddingSpec(spec.alphabet), v, lambda u: _walk(u, steps))
