"""Binary linear codes over GF(2): weight enumeration, parity flags, cosets.

Codewords are packed into Python ints.  The first coordinate of a length-N
word is the most significant bit, so the coordinate i (1-based) of a word
``w`` is ``w >> (N - i) & 1`` and the bit-string ``"1100"`` parses to
``0b1100``.  Lexicographic order on bit-strings coincides with integer order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ResourceBoundError
from .gf2 import GF2System

MAX_LENGTH = 64
MAX_ENUM_LENGTH = 16


class DependentRowError(ValueError):
    """A generator row is zero or GF(2)-dependent on the rows before it."""

    def __init__(self, row_index: int, message: str):
        super().__init__(message)
        self.row_index = row_index


def weight(word: int) -> int:
    """Hamming weight of a packed codeword."""
    return word.bit_count()


def parse_word(text: str, length: int) -> int:
    if len(text) != length or set(text) - {"0", "1"}:
        raise ValueError(f"bad bit-string {text!r} for length {length}")
    return int(text, 2)


def format_word(word: int, length: int) -> str:
    return format(word, f"0{length}b")


def coordinate_mask(length: int, i: int) -> int:
    """Packed unit vector e_i, coordinates 1-based (e_1 = leftmost bit)."""
    if not 1 <= i <= length:
        raise ValueError(f"coordinate {i} out of range 1..{length}")
    return 1 << (length - i)


@dataclass(frozen=True)
class BinaryCode:
    """An [N, k] binary linear code given by k independent generator rows."""

    length: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"code length must be in 1..{MAX_LENGTH}")
        full = (1 << self.length) - 1
        for idx, g in enumerate(self.generators):
            if g & ~full:
                raise ValueError(f"generator row {idx} exceeds length {self.length}")
        span = GF2System()
        for idx, g in enumerate(self.generators):
            if not span.insert(g):
                kind = "zero" if g == 0 else "dependent"
                raise DependentRowError(idx, f"generator row {idx} is {kind}")

    @classmethod
    def from_strings(cls, length: int, rows: Iterable[str]) -> "BinaryCode":
        return cls(length, tuple(parse_word(r, length) for r in rows))

    @classmethod
    def trivial(cls, length: int) -> "BinaryCode":
        return cls(length, ())

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return 1 << self.dimension

    def codewords(self) -> list[int]:
        """All 2^k codewords, by XOR over generator subsets."""
        words = [0]
        for g in self.generators:
            words += [w ^ g for w in words]
        return words

    def __iter__(self) -> Iterator[int]:
        return iter(self.codewords())

    def to_json(self) -> dict:
        return {
            "n": self.length,
            "generators": [format_word(g, self.length) for g in self.generators],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BinaryCode":
        return cls.from_strings(int(obj["n"]), obj["generators"])


@dataclass(frozen=True)
class CodeReport:
    """Weight statistics for the full codeword enumeration of one code."""

    size: int
    weight_distribution: dict[int, int] = field(compare=False)
    is_even: bool = False
    is_doubly_even: bool = False

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "weight_distribution": {str(w): c for w, c in sorted(self.weight_distribution.items())},
            "is_even": self.is_even,
            "is_doubly_even": self.is_doubly_even,
        }


def analyze_code(code: BinaryCode) -> CodeReport:
    """Enumerate all codewords and report the weight distribution.

    ``is_even`` means every weight is divisible by 2, ``is_doubly_even``
    by 4; the zero code is doubly-even.
    """
    dist = Counter(weight(c) for c in code.codewords())
    is_even = all(w % 2 == 0 for w in dist)
    is_de = all(w % 4 == 0 for w in dist)
    return CodeReport(code.size, dict(dist), is_even, is_de)


def _coset_table(code: BinaryCode) -> tuple[list[int], list[int]]:
    """(sorted coset representatives, coset index of each unit vector
    e_1..e_N).

    The smallest member of a coset is its residue modulo the code's
    echelon basis: the residue has every pivot bit clear, and adding a
    nonzero codeword sets the codeword's leading pivot.  So the
    representatives are the words with no pivot bit, listed ascending by
    doubling over the free bits from the lowest, and a residue's coset
    index is its free bits packed together.  The index is linear, so the
    coset of ``rep ^ x`` has index ``i ^ index(x)``.  Refused above N =
    ``MAX_ENUM_LENGTH``.
    """
    n = code.length
    if n > MAX_ENUM_LENGTH:
        raise ResourceBoundError(
            f"coset enumeration needs 2^{n} words; bound is 2^{MAX_ENUM_LENGTH}"
        )
    basis = GF2System(code.generators)
    free = [1 << b for b in range(n) if b not in basis.pivots]
    reps = [0]
    for bit in free:
        reps += [r | bit for r in reps]

    def index(word: int) -> int:
        return sum(1 << j for j, bit in enumerate(free) if word & bit)

    units = [index(basis.reduce(coordinate_mask(n, i))) for i in range(1, n + 1)]
    return reps, units


def enumerate_cosets(code: BinaryCode) -> list[int]:
    """Representatives of the 2^(N-k) cosets of the code in GF(2)^N.

    Each representative is the lexicographically smallest coset member;
    the result is sorted.  Enumeration is refused above
    N = ``MAX_ENUM_LENGTH``.
    """
    return _coset_table(code)[0]
