"""Words over the three boundary letters, and the refusals of a word or order outside the model.

A boundary condition of a triangulated disk is a word in the letters
``{0, 1, 2}`` (one letter per boundary edge, read from the marked edge),
stored packed two bits per letter, first letter lowest.  ``packed_words``
lists the packed words of each length.  ``check_letters``,
``check_order`` and ``check_listing`` are the refusals of a word outside
the model, of a negative triangle order and of a listing past the slot
bound.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

LETTERS = (0, 1, 2)


class Word:
    """Immutable word over {0, 1, 2}, stored as a packed integer.

    Letters are packed two bits each, first letter in the lowest bits, which
    keeps prefix/suffix surgery cheap in the solver's inner loops.
    """

    __slots__ = ("n", "bits")

    def __init__(self, letters: Iterable[int] = ()):
        bits = 0
        n = 0
        for a in letters:
            if a not in (0, 1, 2):
                raise ValueError(f"letter {a!r} outside alphabet {{0,1,2}}")
            bits |= a << (2 * n)
            n += 1
        self.n = n
        self.bits = bits

    @staticmethod
    def _raw(n: int, bits: int) -> "Word":
        w = object.__new__(Word)
        w.n = n
        w.bits = bits
        return w

    @staticmethod
    def from_string(s: str) -> "Word":
        s = s.strip()
        if s in ("", "ε"):
            return EMPTY_WORD
        for ch in s:
            if ch not in "012":
                raise ValueError(f"letter {ch!r} of word {s!r} outside alphabet {{0,1,2}}")
        return Word(map(int, s))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            return Word(self.letters()[i])
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("letter index out of range")
        return (self.bits >> (2 * i)) & 3

    def __iter__(self):
        b = self.bits
        for _ in range(self.n):
            yield b & 3
            b >>= 2

    def letters(self) -> tuple:
        return tuple(self)

    # -- surgery -----------------------------------------------------------

    def __add__(self, other: "Word") -> "Word":
        return Word._raw(self.n + other.n, self.bits | (other.bits << (2 * self.n)))

    def prepend(self, a: int) -> "Word":
        return Word._raw(self.n + 1, a | (self.bits << 2))

    def drop_first(self) -> "Word":
        return Word._raw(self.n - 1, self.bits >> 2)

    def reverse(self) -> "Word":
        return Word(reversed(self.letters()))

    def rotations(self):
        """All cyclic rotations, starting with the word itself."""
        ls = self.letters()
        for i in range(max(self.n, 1)):
            yield Word(ls[i:] + ls[:i])

    def relabel(self, perm: Sequence[int]) -> "Word":
        return Word(perm[a] for a in self)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"Word('{self}')"

    def __str__(self):
        if self.n == 0:
            return "ε"
        return "".join(str(a) for a in self)


EMPTY_WORD = Word()

_LISTED_SLOTS = 1 << 20  # the largest admitted listing, every word of up to 12 letters at g^0, is 797,161 slots


def check_listing(nlet: int, lmax: int, ng: int) -> None:
    """Refuse a listing of every word of up to ``lmax`` letters at g^0..g^ng past 2^20 slots (words times orders)."""
    slots = (ng + 1) * sum(nlet**k for k in range(lmax + 1))
    if slots > _LISTED_SLOTS:
        raise ValueError(
            f"listing of every word of up to {lmax} letters to g^{ng} refused: "
            f"{slots} slots, beyond the 2^20 slot bound"
        )


def check_letters(words, nlet: int) -> None:
    """ValueError for the first word with a letter past the first ``nlet``; free at three, where every Word fits."""
    if nlet < 3:
        for w in words:
            bad = [a for a in w.letters() if a >= nlet]
            if bad:
                raise ValueError(f"letter {bad[0]} of word {w} outside the {nlet}-letter model")


def check_order(n: int) -> None:
    """ValueError for a negative triangle order (a power of g)."""
    if n < 0:
        raise ValueError(f"triangle order n = {n} is negative")


def packed_words(nlet: int, maxlen: int) -> list:
    """Packed words over the first ``nlet`` letters, one list per length up to maxlen."""
    out = [[0]]
    for k in range(1, maxlen + 1):
        prev = out[-1]
        shift = 2 * (k - 1)
        cur = []
        for a in range(nlet):
            abits = a << shift
            cur.extend(w | abits for w in prev)
        out.append(cur)
    return out


def all_words(length: int):
    """All words of the given length in lexicographic letter order."""
    if length == 0:
        yield EMPTY_WORD
        return
    for ls in product(LETTERS, repeat=length):
        yield Word(ls)
