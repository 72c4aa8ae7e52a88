"""Sparse exact vectors spanned by eventually periodic word labels.

A ``Ket`` is a finite linear combination of ``EPWord`` basis labels with
``RadicalScalar`` amplitudes.  The labels form an orthonormal family, so the
inner product is the amplitude-wise sum over matching canonical labels (all
scalars are real).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .scalar import RadicalScalar, ZERO
from .words import EPWord

ScalarLike = Union[RadicalScalar, int, Fraction]


def _as_scalar(value: ScalarLike) -> RadicalScalar:
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalScalar.rational(value)
    raise TypeError(f"not a scalar: {value!r}")


class Ket:
    """Finite linear combination of word labels; the empty sum is zero."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Mapping[EPWord, ScalarLike] | Iterable[tuple[EPWord, ScalarLike]] = ()):
        amps: dict[EPWord, RadicalScalar] = {}
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        for word, coeff in items:
            coeff = _as_scalar(coeff)
            if coeff:
                _add_amplitude(amps, word, coeff)
        self._amps = amps

    @classmethod
    def basis(cls, word: EPWord) -> "Ket":
        return cls({word: 1})

    def amplitude(self, word: EPWord) -> RadicalScalar:
        return self._amps.get(word, ZERO)

    def items(self) -> list[tuple[EPWord, RadicalScalar]]:
        return sorted(self._amps.items(), key=lambda kv: kv[0].sort_key())

    def labels(self) -> list[EPWord]:
        return sorted(self._amps, key=EPWord.sort_key)

    def is_zero(self) -> bool:
        return not self._amps

    def __bool__(self) -> bool:
        return bool(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self._amps == other._amps

    def __add__(self, other: "Ket") -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        merged = dict(self._amps)
        for word, coeff in other._amps.items():
            _add_amplitude(merged, word, coeff)
        return _canonical(merged)

    def __sub__(self, other: "Ket") -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Ket":
        return _canonical({w: -c for w, c in self._amps.items()})

    def __rmul__(self, scalar: ScalarLike) -> "Ket":
        try:
            scalar = _as_scalar(scalar)
        except TypeError:
            return NotImplemented
        if not scalar:
            return Ket()
        return _canonical({w: scalar * c for w, c in self._amps.items()})

    __mul__ = __rmul__

    def inner(self, other: "Ket") -> RadicalScalar:
        """Exact inner product; the word labels are orthonormal."""
        if len(other._amps) < len(self._amps):
            self, other = other, self
        total = ZERO
        for word, coeff in self._amps.items():
            coeff2 = other._amps.get(word)
            if coeff2 is not None:
                total = total + coeff * coeff2
        return total

    def norm_squared(self) -> RadicalScalar:
        total = ZERO
        for coeff in self._amps.values():
            total = total + coeff * coeff
        return total

    def __str__(self) -> str:
        if not self._amps:
            return "0"
        lines = []
        for word, coeff in self.items():
            text = str(coeff)
            if len(coeff.terms()) > 1:
                text = f"({text})"
            lines.append(f"{text} * |{word}>")
        return "\n".join(lines)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "prefix": list(word.prefix),
                    "cycle": list(word.cycle),
                    "coeff": coeff.to_json_terms(),
                }
                for word, coeff in self.items()
            ]
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Ket":
        return cls(
            (
                EPWord(entry["prefix"], entry["cycle"]),
                RadicalScalar.from_json_terms(entry["coeff"]),
            )
            for entry in doc["terms"]
        )


def _add_amplitude(amps: dict[EPWord, RadicalScalar], word: EPWord, coeff: RadicalScalar) -> None:
    """Add a nonzero ``coeff`` to the amplitude of ``word``, dropping the label if it cancels."""
    prev = amps.get(word)
    if prev is None:
        amps[word] = coeff
        return
    total = prev + coeff
    if total:
        amps[word] = total
    else:
        del amps[word]


def _canonical(amps: dict[EPWord, RadicalScalar]) -> Ket:
    """A ket over ``amps`` as given: canonical labels, nonzero amplitudes, no copy."""
    out = object.__new__(Ket)
    out._amps = amps
    return out
