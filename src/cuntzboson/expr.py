"""The package's one operator value, ``Term``, with its parser and its applier.

A ``Term`` is a coefficient times a product of starred or plain generators
``s<k>`` and ladders ``a<k>``, each to a power: a ladder product such as
``a1*^2 a2`` and a Cuntz word such as ``sqrt(2) s1 s3*`` are printed by one
``__str__`` and applied by one ``eval_on_ket``.

Grammar: an expression is a sum of products separated by ``+``/``-``; a
product juxtaposes factors, each a generator token ``s<k>`` / ``a<k>`` with
optional trailing ``*``, or a literal (``3``, ``3/2``, ``sqrt(2)``).
Example: ``s1 s2* + sqrt(2) s3``.  Powers are printed but not yet parsed.

``parse_expression`` reads the text in one pass, each token straight into
the current term.  An ``ExprError``'s position is the first character of the
token at fault, and the first bad token wins; an empty last term (at its last
sign) and an empty expression (at 0) are reported after the whole text is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import cuntz
from .boson import _walk
from .common import ExprError, check_index
from .embed import _embedded
from .scalar import ONE, ZERO, RadicalScalar, _grouped, sqrt_nat
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
    power: int = 1


class Term(NamedTuple):
    """``coeff`` times the product of ``factors``, which act right to left."""

    coeff: RadicalScalar
    factors: tuple[Factor, ...]

    def adjoint(self) -> Term:
        """The factors reversed, each star flipped; every coefficient is real."""
        return Term(self.coeff, tuple(f._replace(star=not f.star) for f in reversed(self.factors)))

    def __str__(self) -> str:
        """``a1*^2 a3* a2``, ``sqrt(2) s1 s3*``: the factors after a coefficient other
        than ``ONE``, which stands alone when there are none; ``1`` when there is neither."""
        body = " ".join(f"{f.kind}{f.index}{'*' * f.star}" + (f"^{f.power}" if f.power > 1 else "")
                        for f in self.factors)
        if self.coeff == ONE:
            return body or "1"
        return f"{_grouped(self.coeff)} {body}" if body else _grouped(self.coeff)


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


def eval_on_ket(spec: cuntz.RepSpec, terms: list[Term], state: Ket) -> Ket:
    """Apply the terms to a ket and sum the images; factors in a product act right to left.

    Each maximal run of one kind of factor acts in one piece.  A run of ladder
    factors is one ladder product, which every label walks in one pass; with a
    finite alphabet it acts through the embedding block code, decoding each
    label once before the walk and encoding it once after, which requires
    every label to end in 1^inf.  A run of generators is reduced by
    s_i* s_j = delta_ij to one s_J s_K*, or to zero, and applied by
    ``cuntz.apply_monomial``; each of its letters is first checked against
    the alphabet, in the order they act, even when the run is zero.
    """
    images = []
    for term in terms:
        v, run = state, []
        for factor in reversed(term.factors):
            if run and run[-1].kind != factor.kind:
                v, run = _apply_run(spec, run, v), []
            run.append(factor)
        images.append(term.coeff * (_apply_run(spec, run, v) if run else v))
    return _sum(images)


def _walk_steps(factors: Iterable[Factor]) -> list[tuple[int, int]]:
    """The ``boson._walk`` steps of ladder factors listed in the order they act."""
    return [(f.index, f.power if f.star else -f.power) for f in factors]


def _apply_run(spec: cuntz.RepSpec, run: list[Factor], v: Ket) -> Ket:
    """A run of factors of one kind, listed in the order they act, applied to ``v``."""
    if run[0].kind == "a":
        steps = _walk_steps(run)
        return _walk(v, steps) if spec.alphabet is None else _embedded(spec, v, steps)
    coeff, left, right = ONE, [], []  # the run so far is coeff s_J s_K*, with J = left reversed
    for f in run:
        spec.check_letter(f.index)
        for _ in range(f.power):
            if not f.star:
                left.append(f.index)
            elif not left:
                right.append(f.index)
            elif left.pop() != f.index:
                coeff = ZERO
    # called through its module, so that a replaced cuntz.apply_monomial acts here too
    return cuntz.apply_monomial(spec, coeff, left[::-1], right, v)
