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

from .boson import apply_annihilate, apply_create
from .common import ExprError, check_index
from .cuntz import RepSpec, apply_generator
from .embed import EmbeddingSpec, embedded_annihilate, embedded_create
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

    With a finite alphabet the ladder tokens act through the embedding block
    code, which requires every label to end in 1^inf.
    """
    images = []
    for term in terms:
        v = state
        for factor in reversed(term.factors):
            if factor.kind == "s":
                v = apply_generator(spec, factor.index, v, star=factor.star)
            else:
                v = _apply_ladder(spec, factor, v)
        images.append(term.coeff * v)
    return _sum(images)


def _apply_ladder(spec: RepSpec, factor: Factor, v: Ket) -> Ket:
    if spec.alphabet is None:
        return apply_create(factor.index, v) if factor.star else apply_annihilate(factor.index, v)
    ambient = EmbeddingSpec(spec.alphabet)
    return (embedded_create if factor.star else embedded_annihilate)(ambient, factor.index, v)

