"""Shared error types, the CLI bounds, the check-report record and the sparse-sum kernel."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class DomainError(ValueError):
    """Input is syntactically fine but outside the operation's domain."""


class AlphabetError(DomainError):
    """A generator index or word letter exceeds the ambient alphabet bound."""


class ExprError(ValueError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Largest mode or generator index that command-line text may name: the
# tokens a<n> and s<n> of an expression, the modes of an occupation list and
# the generator indices of ``embed``.  A ladder step costs the same at every
# mode, but a label that deviates at position n prints n letters, an O_N
# word for s_n has about n letters and an odometer index about n bits, so
# larger indices are refused with DomainError (exit code 3) instead of
# running without bound.  The O_N word that ``embed --word`` builds from
# several indices is held to at most MAX_MODE letters in all.
MAX_MODE = 10**6


def check_index(index: int, what: str) -> None:
    """Refuse a mode or generator index above ``MAX_MODE`` with ``DomainError``."""
    if index > MAX_MODE:
        raise DomainError(f"{what} {index} exceeds the largest supported {what} {MAX_MODE}")


# Largest number of orthonormality checks one ``bases`` or ``verify bases``
# call may make.  A family of n elements costs n(n+1)/2 checks, about 0.11 us
# each (``bases --family typej --j 1 --modes 6 --exps 3``: 8,390,656 checks,
# 0.95 s as a CLI process on a 2-vCPU machine, Python 3.11), so the bound is
# about 1.1 s of work; a larger request is refused with DomainError (exit
# code 3) before any family is built.
MAX_CHECKS = 10**7


def check_family_sizes(sizes: Iterable[int], what: str) -> None:
    """Refuse families whose orthonormality checks add up to more than ``MAX_CHECKS``."""
    if sum(n * (n + 1) // 2 for n in sizes) > MAX_CHECKS:
        raise DomainError(f"{what} needs more orthonormality checks than the largest "
                          f"supported number, MAX_CHECKS = {MAX_CHECKS}")


# Largest number of checks one ``verify ccr``, ``relations``, ``embedding``,
# ``odometer`` or ``fock-ext`` call, or rows one ``branch`` call, may make.
# Each builds kets by ladder steps or generator actions and compares them, about
# 15-80 us at modest exponents, a hundred times an orthonormality check, so the
# bound is several seconds of work.  Each count comes from the arguments, and a
# larger request is refused with DomainError (exit code 3) before anything is
# drawn or built.  The odometer count adds the modes its checks name over 10**4,
# as a check at mode n works on n-bit integers.  The fock-ext count adds
# checks * (k * exps)**2 // (5 * 10**4), k = min(cutoff, modes), as the digits of
# its coefficients grow with k * exps (`--modes 1 --cutoff 1 --exps 2000` makes
# 4,002 checks of about 5 s in all and is refused).  The embedding count adds
# 2 * samples: each Fock sample decodes and encodes its state once per creator,
# so its two checks cost about four.  No count sees the cycle letter j of an F_j
# row of ``branch``.
MAX_KET_CHECKS = 10**5


def check_ket_checks(count: int, what: str) -> None:
    """Refuse a suite or ``branch`` call of more than ``MAX_KET_CHECKS`` ket-building checks."""
    if count > MAX_KET_CHECKS:
        raise DomainError(f"{what} needs more checks than the largest supported number, "
                          f"MAX_KET_CHECKS = {MAX_KET_CHECKS}")


class CheckResult(NamedTuple):
    """One verified identity: its name, outcome, and the exact scalars seen."""

    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


def add_term(terms: dict, key, coeff, sign: int = 1) -> None:
    """Add a nonzero ``coeff`` times ``sign`` (1 or -1) to ``terms[key]``, deleting the key at zero.

    The one accumulation step of every exact sparse sum in the package: scalar
    numerators, ket amplitudes and polynomial coefficients.  Callers whose
    coefficient can be zero filter it first.  A sign of -1 subtracts, so a
    difference needs no negated copy of its right side.
    """
    prev = terms.get(key)
    if prev is None:
        terms[key] = coeff if sign > 0 else -coeff
        return
    total = prev + coeff if sign > 0 else prev - coeff
    if total:
        terms[key] = total
    else:
        del terms[key]
