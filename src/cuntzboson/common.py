"""Shared error types, the check-report record and the sparse-sum kernel used across modules."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Input is syntactically fine but outside the operation's domain."""


class AlphabetError(DomainError):
    """A generator index or word letter exceeds the ambient alphabet bound."""


class ExprError(ValueError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its name, outcome, and the exact scalars seen."""

    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


def add_term(terms: dict, key, coeff) -> None:
    """Add a nonzero ``coeff`` to ``terms[key]``, deleting the key when the sum is zero.

    The one accumulation step of every exact sparse sum in the package: scalar
    numerators, ket amplitudes and polynomial coefficients.  Callers whose
    coefficient can be zero filter it first.
    """
    prev = terms.get(key)
    if prev is None:
        terms[key] = coeff
        return
    total = prev + coeff
    if total:
        terms[key] = total
    else:
        del terms[key]
