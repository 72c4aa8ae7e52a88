"""Sparse exact vectors spanned by eventually periodic word labels.

A ``Ket`` is a finite linear combination of ``EPWord`` basis labels with
``RadicalScalar`` amplitudes.  The labels form an orthonormal family, so the
inner product is the amplitude-wise sum over matching canonical labels (all
scalars are real).

A ket may keep its ladder images.  Its ``_images`` slot is ``None`` on every
ket that ``Ket.__init__`` and ``_canonical`` build; a caller that will ask
one ket for the same single ladder step many times sets it to ``{}``, and
``boson._ladder`` then builds each image (n, +-1) once and keeps it there,
keyed by the signed mode; ``boson.apply_create``/``apply_annihilate`` answer
each repeat from the slot, for modes n >= 1 only, without entering
``_ladder``.  Those three functions and ccr are the slot's only readers.  An
image keeps none of its own unless its caller sets its slot too, so a kept
ket holds at most two images per mode it is asked for and frees them when it
is freed.

The slot has one user, ``verify``'s ccr.  It keeps images on each sample
and, for the images of their own kind (a_n a_m v and a_n* a_m* v, each asked
for twice), on each of the sample's single-step images while the sample is
checked; the mixed images (a_n a_m* v, a_m* a_n v) are asked for once and
kept nowhere.  Of a sample's 12·modes² ladder requests, half ask for one of
its 2·modes single-step images and half for a two-step image, of which
4·modes² are distinct, so a sample makes 2·modes + 4·modes² image builds and
holds at most 2·modes·(1 + modes) kets (84 at modes 6), freed with the
sample.  It is not on for every ket: the ladder-deep benchmark keeps 1,080
one-label inputs alive for a whole unit and never repeats a request, and
images kept on every ket took its ``wall_s`` from 0.0126 to 0.0174 s and its
``peak_rss_mb`` from 17.3 to 20.4 (``BENCH_29.json``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

from .common import add_term
from .scalar import ONE, RadicalScalar, ZERO, _coerce, _grouped
from .words import EPWord

ScalarLike = Union[RadicalScalar, int, Fraction]


class Ket:
    """Finite linear combination of word labels; the empty sum is zero."""

    __slots__ = ("_amps", "_images")

    def __init__(self, amplitudes: Mapping[EPWord, ScalarLike] | Iterable[tuple[EPWord, ScalarLike]] = ()):
        self._images = None
        if not amplitudes:  # Ket(), the zero ket, skips the general path
            self._amps = {}
            return
        amps: dict[EPWord, RadicalScalar] = {}
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        for word, value in items:
            coeff = _coerce(value)
            if coeff is NotImplemented:
                raise TypeError(f"not a scalar: {value!r}")
            if coeff:
                add_term(amps, word, coeff)
        self._amps = amps

    @classmethod
    def basis(cls, word: EPWord) -> "Ket":
        return _canonical({word: ONE})

    def items(self) -> list[tuple[EPWord, RadicalScalar]]:
        """(label, amplitude) pairs in label order, for printing; operators iterate ``_amps``."""
        return sorted(self._amps.items(), key=lambda kv: kv[0].sort_key())

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
        return _sum((self, other))

    def __sub__(self, other: "Ket") -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        amps = dict(self._amps)
        for word, coeff in other._amps.items():
            add_term(amps, word, coeff, -1)
        return _canonical(amps)

    def __neg__(self) -> "Ket":
        return _canonical({w: -c for w, c in self._amps.items()})

    def __rmul__(self, scalar: ScalarLike) -> "Ket":
        scalar = _coerce(scalar)
        if scalar is NotImplemented:
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

    def __str__(self) -> str:
        if not self._amps:
            return "0"
        return "\n".join(f"{_grouped(coeff)} * |{word}>" for word, coeff in self.items())

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


def _sum(kets: Iterable[Ket]) -> Ket:
    """The sum of ``kets``, accumulated into one dict."""
    amps: dict[EPWord, RadicalScalar] = {}
    for ket in kets:
        if not amps:
            amps = dict(ket._amps)
            continue
        for word, coeff in ket._amps.items():
            add_term(amps, word, coeff)
    return _canonical(amps)


def _canonical(amps: dict[EPWord, RadicalScalar]) -> Ket:
    """A ket over ``amps`` as given: canonical labels, nonzero amplitudes, no copy."""
    out = object.__new__(Ket)
    out._amps = amps
    out._images = None
    return out
