"""Parser and evaluator for operator expressions.

Grammar: an expression is a sum of products separated by ``+``/``-``; a
product juxtaposes factors, each a generator token ``s<k>`` / ``a<k>`` with
optional trailing ``*``, or a literal (``3``, ``3/2``, ``sqrt(2)``).
Example: ``s1 s2* + sqrt(2) s3``.

``parse_expression`` reads the text in one pass, each token straight into
the current term.  An ``ExprError``'s position is the first character of the
token at fault, and the first bad token wins; an empty last term (at its last
sign) and an empty expression (at 0) are reported after the whole text is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .boson import _walk
from .common import ExprError, check_index
from .cuntz import RepSpec, apply_generator
from .embed import _embedded
from .scalar import ONE, RadicalScalar, sqrt_nat
from .states import Ket, _sum

_TOKEN = re.compile(
    r"\s*(?P<token>(?P<gen>[sa])(?P<index>\d+)(?P<star>\*?)"
    r"|(?P<sqrt>sqrt\(\s*(?P<radicand>\d+)\s*\))"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<sign>[+-]))"
)


class Factor(NamedTuple):
    kind: str  # 's' or 'a'
    index: int
    star: bool


class Term(NamedTuple):
    coeff: RadicalScalar
    factors: tuple[Factor, ...]


def parse_expression(text: str) -> list[Term]:
    terms: list[Term] = []
    coeff, factors, saw_content = ONE, [], False
    start = pos = 0
    while match := _TOKEN.match(text, pos):
        start, pos = match.start("token"), match.end()  # past the leading whitespace
        if match["gen"]:
            index = int(match["index"])
            if index < 1:
                raise ExprError("generator indices are 1-based", start)
            check_index(index, "mode" if match["gen"] == "a" else "generator index")
            factors.append(Factor(match["gen"], index, bool(match["star"])))
            saw_content = True
        elif match["sqrt"]:
            radicand = int(match["radicand"])
            if radicand < 1:
                raise ExprError("sqrt needs a radicand >= 1", start)
            coeff, saw_content = coeff * sqrt_nat(radicand), True
        elif match["number"]:
            try:
                value = Fraction(match["number"])
            except ZeroDivisionError:
                raise ExprError("zero denominator", start) from None
            coeff, saw_content = coeff * RadicalScalar.rational(value), True
        else:
            if saw_content:
                terms.append(Term(coeff, tuple(factors)))
                coeff, factors, saw_content = ONE, [], False
            if match["sign"] == "-":
                coeff = -coeff
    rest = text[pos:].lstrip()
    if rest:
        raise ExprError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    if not saw_content:
        raise ExprError("empty term" if pos else "empty expression", start)
    terms.append(Term(coeff, tuple(factors)))
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
    return _embedded(spec, v, lambda u: _walk(u, steps))
