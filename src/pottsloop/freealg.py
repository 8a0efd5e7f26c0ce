"""Words over the three boundary letters and truncated non-commutative series.

A boundary condition of a triangulated disk is a word in the letters
``{0, 1, 2}`` (one letter per boundary edge, read from the marked edge).
``NCSeries`` maps words to ``GSeries`` coefficients and carries the boundary
derivative operators that add or strip letters on either side.

A disk amplitude is a trace, so it is invariant under cyclic rotation of its
word, under reversal (transposition) and under relabelling of the spins;
``orbit_rep`` names one word per orbit of that group, ``word_orbits`` lists
the orbits of one word length and ``GENERATORS`` maps lists of packed words
by the four generators of the group.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

from .ring import GSeries

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
        return Word(int(ch) for ch in s)

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

    def __bool__(self) -> bool:
        return self.n > 0

    # -- surgery -----------------------------------------------------------

    def __add__(self, other: "Word") -> "Word":
        return Word._raw(self.n + other.n, self.bits | (other.bits << (2 * self.n)))

    def prepend(self, a: int) -> "Word":
        return Word._raw(self.n + 1, a | (self.bits << 2))

    def append(self, a: int) -> "Word":
        return Word._raw(self.n + 1, self.bits | (a << (2 * self.n)))

    def drop_first(self) -> "Word":
        return Word._raw(self.n - 1, self.bits >> 2)

    def drop_last(self) -> "Word":
        return Word._raw(self.n - 1, self.bits & ((1 << (2 * (self.n - 1))) - 1))

    def reverse(self) -> "Word":
        return Word(reversed(self.letters()))

    def rotations(self):
        """All cyclic rotations, starting with the word itself."""
        ls = self.letters()
        for i in range(max(self.n, 1)):
            yield Word(ls[i:] + ls[:i])

    def relabel(self, perm: Sequence[int]) -> "Word":
        return Word(perm[a] for a in self)

    def count(self, a: int) -> int:
        return sum(1 for b in self if b == a)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def sort_key(self):
        return (self.n, self.letters())

    def __repr__(self):
        return f"Word('{self}')"

    def __str__(self):
        if self.n == 0:
            return "ε"
        return "".join(str(a) for a in self)


EMPTY_WORD = Word()

# letters of one packed byte (four letters, first letter lowest) as a string
_BYTE_LETTERS = [a + b + c + d for d in "0123" for c in "0123" for b in "0123" for a in "0123"]
_RUNS = re.compile(r"0+|1+|2+")
# first-occurrence relabelling of a string that starts with x and whose first other letter is y
_FIRST_OCCURRENCE = {
    (x, y): str.maketrans(x + y + "012".replace(x, "").replace(y, ""), "012")
    for x in "012"
    for y in "012"
    if x != y
}


def orbit_rep(bits: int, k: int) -> int:
    """Packed representative of a word's rotation/reversal/relabelling orbit.

    The representative is the lexicographically least first-occurrence
    relabelling of the k rotations of the word and of its reversal.  Each of
    those strings starts with its first run of equal letters renamed to 0s,
    so only images that start at a longest cyclic run, in either reading
    direction, can be least; the others are never built.
    """
    s = "".join(map(_BYTE_LETTERS.__getitem__, bits.to_bytes((k + 3) >> 2, "little")))[:k]
    e = len(s.rstrip(s[:1]))
    if not e:
        return 0  # empty or one-letter word
    # rotate so that r starts where a cyclic run starts and ends where one ends
    r = s[e:] + s[:e]
    lens = list(map(len, _RUNS.findall(r)))
    longest = max(lens)
    r2 = r + r
    rev2 = r2[::-1]
    best = "3"  # every candidate starts with 0, so it sorts before this
    end = 0
    for length in lens:
        end += length
        if length == longest:
            # the run r[end - longest:end] read forwards and read backwards
            for t in (r2[end - longest : end - longest + k], rev2[k - end : 2 * k - end]):
                t = t.translate(_FIRST_OCCURRENCE[t[0], t[longest]])
                if t < best:
                    best = t
    return int(best[::-1], 4)


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


# the four letters of one packed byte in reverse order
_REVERSED_BYTE = bytes((b >> 6) | ((b >> 2) & 12) | ((b << 2) & 48) | ((b & 3) << 6) for b in range(256))

# The maps below take a list of packed k-letter words and return the list of
# their images, one comprehension per map rather than one call per word.


def _low_bits(k: int) -> int:
    """The low bit of each of k packed letters."""
    return ((1 << (2 * k)) - 1) // 3


def _rotate(words: list, k: int) -> list:
    # the first letter moves to the end
    top = 2 * (k - 1)
    return [(w >> 2) | ((w & 3) << top) for w in words]


def _reverse(words: list, k: int) -> list:
    # reverse the bytes, then the four letters within each byte, then drop the padding letters
    nbytes = (k + 3) >> 2
    pad = 2 * (4 * nbytes - k)
    return [int.from_bytes(w.to_bytes(nbytes, "big").translate(_REVERSED_BYTE), "little") >> pad for w in words]


def _swap01(words: list, k: int) -> list:
    # letters 0 (00) and 1 (01) differ in the low bit; flip it where the high bit is clear
    low = _low_bits(k)
    return [w ^ (low & ~(w >> 1)) for w in words]


def _swap12(words: list, k: int) -> list:
    # letters 1 (01) and 2 (10) swap their two bits, and 0 (00) keeps them
    low = _low_bits(k)
    return [((w & low) << 1) | ((w >> 1) & low) for w in words]


# the four generators of the orbit group: one rotation, the reversal, (01) and (12);
# a set of words that holds the image of each of its words under all four is a union of orbits
GENERATORS = (_rotate, _reverse, _swap01, _swap12)


def _orbit_images(bits: int, k: int) -> set:
    """Every packed word in the rotation/reversal/relabelling orbit of a k-letter word."""
    if k == 0:
        return {0}
    dihedral = [bits, *_reverse([bits], k)]
    for _ in range(k - 1):
        dihedral += _rotate(dihedral[-2:], k)
    s = _swap01(dihedral, k)
    t = _swap12(dihedral, k)
    ts = _swap12(s, k)
    return {*dihedral, *s, *t, *ts, *_swap01(t, k), *_swap01(ts, k)}


def reflection_least(words: list, k: int) -> list:
    """The words of a list closed under reversal and (12) that are least in their class."""
    rev = _reverse(words, k)
    return [w for w, r, s, rs in zip(words, rev, _swap12(words, k), _swap12(rev, k)) if w <= min(r, s, rs)]


@lru_cache(maxsize=None)
def word_orbits(k: int) -> tuple:
    """The rotation/reversal/relabelling orbits of the 3-letter words of length k.

    One ``(orbit_rep, images)`` pair per orbit, ``images`` a tuple of every
    packed word of the orbit.  The sweep takes the first word not seen yet,
    names its orbit with ``orbit_rep`` and marks its images, so ``orbit_rep``
    runs once per orbit.  Cached: the dense solve and its residual share it.
    """
    seen = set()
    out = []
    for w in packed_words(3, k)[k]:
        if w not in seen:
            images = _orbit_images(w, k)
            seen |= images
            out.append((orbit_rep(w, k), tuple(images)))
    return tuple(out)


def all_words(length: int):
    """All words of the given length in lexicographic letter order."""
    if length == 0:
        yield EMPTY_WORD
        return
    import itertools

    for ls in itertools.product(LETTERS, repeat=length):
        yield Word(ls)


class NCSeries:
    """Truncated non-commutative power series: word -> GSeries coefficient.

    Words longer than ``lmax`` are dropped; absent words mean zero.
    """

    __slots__ = ("terms", "lmax", "ng")

    def __init__(self, terms: dict, lmax: int, ng: int):
        self.terms = {
            w: v
            for w, v in terms.items()
            if len(w) <= lmax and not v.is_zero()
        }
        self.lmax = lmax
        self.ng = ng

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(lmax: int, ng: int) -> "NCSeries":
        return NCSeries({}, lmax, ng)

    @staticmethod
    def unit(lmax: int, ng: int) -> "NCSeries":
        return NCSeries({EMPTY_WORD: GSeries.one(ng)}, lmax, ng)

    @staticmethod
    def monomial(word: Word, lmax: int, ng: int, coeff=None) -> "NCSeries":
        return NCSeries({word: coeff if coeff is not None else GSeries.one(ng)}, lmax, ng)

    # -- queries ------------------------------------------------------------

    def coefficient(self, word: Word) -> GSeries:
        return self.terms.get(word, GSeries.zero(self.ng))

    def is_zero(self) -> bool:
        return not self.terms

    def words(self):
        return sorted(self.terms, key=Word.sort_key)

    def _check(self, other: "NCSeries"):
        if self.lmax != other.lmax or self.ng != other.ng:
            raise ValueError("mismatched series truncations")

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._check(other)
        out = dict(self.terms)
        for w, v in other.terms.items():
            cur = out.get(w)
            out[w] = v if cur is None else cur + v
        return NCSeries(out, self.lmax, self.ng)

    def __neg__(self) -> "NCSeries":
        return NCSeries({w: -v for w, v in self.terms.items()}, self.lmax, self.ng)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self + (-other)

    def scale(self, v) -> "NCSeries":
        return NCSeries({w: g * v for w, g in self.terms.items()}, self.lmax, self.ng)

    # -- products and operators -------------------------------------------------

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        """Concatenation (Cauchy) product; words beyond lmax dropped."""
        self._check(other)
        by_len: dict = {}
        for v, bv in other.terms.items():
            by_len.setdefault(v.n, []).append((v, bv))
        out: dict = {}
        for u, au in self.terms.items():
            for vlen in range(self.lmax - u.n + 1):
                for v, bv in by_len.get(vlen, ()):
                    w = u + v
                    p = au * bv
                    cur = out.get(w)
                    out[w] = p if cur is None else cur + p
        return NCSeries(out, self.lmax, self.ng)

    def mul_letter_left(self, a: int) -> "NCSeries":
        """Multiply by the letter ``a`` on the left."""
        out = {}
        for w, v in self.terms.items():
            if len(w) + 1 <= self.lmax:
                out[w.prepend(a)] = v
        return NCSeries(out, self.lmax, self.ng)

    def left_delta(self, a: int) -> "NCSeries":
        """Strip a leading ``a``; words starting otherwise are annihilated."""
        out = {}
        for w, v in self.terms.items():
            if len(w) and w[0] == a:
                out[w.drop_first()] = v
        return NCSeries(out, self.lmax, self.ng)

    def right_delta(self, a: int) -> "NCSeries":
        """Strip a trailing ``a``; words ending otherwise are annihilated."""
        out = {}
        for w, v in self.terms.items():
            if len(w) and w[-1] == a:
                out[w.drop_last()] = v
        return NCSeries(out, self.lmax, self.ng)

    def permute_letters(self, perm: Sequence[int]) -> "NCSeries":
        """Relabel every word letterwise; coefficients unchanged."""
        return NCSeries(
            {w.relabel(perm): v for w, v in self.terms.items()}, self.lmax, self.ng
        )

    def restrict(self, kill) -> "NCSeries":
        """Drop every word containing a killed letter."""
        kill = set(kill)
        out = {
            w: v
            for w, v in self.terms.items()
            if not any(a in kill for a in w)
        }
        return NCSeries(out, self.lmax, self.ng)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCSeries)
            and self.lmax == other.lmax
            and self.ng == other.ng
            and self.terms == other.terms
        )

    def __repr__(self):
        n = len(self.terms)
        return f"NCSeries({n} words, lmax={self.lmax}, ng={self.ng})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            parts.append(f"[{w}] {self.terms[w]}")
        return "\n".join(parts)


def apply_operator_string(ops, a: NCSeries) -> NCSeries:
    """Apply a sequence of boundary derivative operators in the given order.

    Each element of ``ops`` is ``(side, letter)`` with side ``"L"`` or
    ``"R"``.  A left operator strips a leading letter, a right operator a
    trailing one, so extracting the coefficient family of a prefix ``p``
    uses the reversed string of left operators.
    """
    for side, letter in ops:
        if side in ("L", "left"):
            a = a.left_delta(letter)
        elif side in ("R", "right"):
            a = a.right_delta(letter)
        else:
            raise ValueError(f"operator side {side!r} not 'L' or 'R'")
    return a
