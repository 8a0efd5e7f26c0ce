"""Words over the three boundary letters and truncated non-commutative series.

A boundary condition of a triangulated disk is a word in the letters
``{0, 1, 2}`` (one letter per boundary edge, read from the marked edge).
``NCSeries`` maps words to g-series coefficients (``XLaurent`` of x-order
0) and carries the boundary derivative operators that add or strip letters
on either side.

A disk amplitude is a trace, so it is invariant under cyclic rotation of its
word, under reversal (transposition) and under relabelling of the spins;
``orbit_rep`` names one word per orbit of that group, ``word_orbits`` lists
the orbits of one word length, ``GENERATORS`` maps lists of packed words
by three generators of the group and ``symmetry_breaks`` checks a table
layer against them.  The reversal treats each word as one
64-bit lane, so it takes words of at most 32 letters and refuses longer ones.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Sequence

from .ring import XLaurent, _int_rows, _series_addmul

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


# the four letters of one packed byte in reverse order, and then relabelled by (12)
_REVERSED_BYTE = bytes((b >> 6) | ((b >> 2) & 12) | ((b << 2) & 48) | ((b & 3) << 6) for b in range(256))
_REVERSED_12_BYTE = bytes(((r & 85) << 1) | ((r >> 1) & 85) for r in _REVERSED_BYTE)
_LANE_LETTERS = 32  # letters of one 64-bit lane
_LANE_SLICE = 2048  # lanes per slice: bounds the scratch buffers of one call

# The maps below take a list of packed k-letter words and return the list of
# their images, one comprehension per map rather than one call per word.


def _low_bits(k: int) -> int:
    """The low bit of each of k packed letters."""
    return ((1 << (2 * k)) - 1) // 3


def _rotate(words: list, k: int) -> list:
    # the first letter moves to the end
    top = 2 * (k - 1)
    return [(w >> 2) | ((w & 3) << top) for w in words]


def _reverse(words: list, k: int, table: bytes = _REVERSED_BYTE) -> list:
    # Each word is a 64-bit lane of 32 letters, k of them used.  Per slice: pack
    # the lanes highest byte first and reverse the letters of each byte, so the
    # bytes read lowest first hold each lane reversed; then drop the 32 - k zero
    # padding letters, now the low bits of each lane, with one shift of the
    # whole slice, which moves only zeros across lane boundaries.  A table that
    # also relabels must fix the letter 0, so that the padding stays zero.
    if k > _LANE_LETTERS:
        raise ValueError(f"cannot reverse {k}-letter words: a packed lane holds at most {_LANE_LETTERS} letters")
    pad = 2 * (_LANE_LETTERS - k)
    out = []
    for i in range(0, len(words), _LANE_SLICE):
        lanes = words[i : i + _LANE_SLICE]
        buf = struct.pack(f">{len(lanes)}Q", *lanes).translate(table)
        out += struct.unpack(f"<{len(lanes)}Q", (int.from_bytes(buf, "little") >> pad).to_bytes(len(buf), "little"))
    return out


def _reverse12(words: list, k: int) -> list:
    # the reversal and (12) in one pass: (12) fixes the letter 0 of the padding
    return _reverse(words, k, _REVERSED_12_BYTE)


def _swap01(words: list, k: int) -> list:
    # letters 0 (00) and 1 (01) differ in the low bit; flip it where the high bit is clear
    low = _low_bits(k)
    return [w ^ (low & ~(w >> 1)) for w in words]


def _swap12(words: list, k: int) -> list:
    # letters 1 (01) and 2 (10) swap their two bits, and 0 (00) keeps them
    low = _low_bits(k)
    return [((w & low) << 1) | ((w >> 1) & low) for w in words]


# three generators of the orbit group: one rotation, the reversal fused with (12), and
# (01); conjugating (01) by the second gives (02), so with (01) they give all of S3 and
# then the reversal.  A set of words that holds the image of each of its words under
# all three is a union of orbits.
GENERATORS = (_rotate, _reverse12, _swap01)


def symmetry_breaks(layer: dict, k: int) -> dict:
    """The words of a layer (packed k-letter word -> value) whose image under a generator differs.

    Each such word maps to its first differing image; an absent image holds
    0.  The layer is read in slices, which bound the scratch lists.
    """
    words, values = list(layer), list(layer.values())
    broken = {}
    for i in range(0, len(words), _LANE_SLICE):
        ws, vs = words[i : i + _LANE_SLICE], values[i : i + _LANE_SLICE]
        for image_of in GENERATORS:
            images = image_of(ws, k)
            if list(map(layer.get, images, repeat(0))) != vs:
                for w, x, v in zip(ws, images, vs):
                    if layer.get(x, 0) != v:
                        broken.setdefault(w, x)
    return broken


def _orbit_images(bits: int, k: int) -> set:
    """Every packed word in the rotation/reversal/relabelling orbit of a k-letter word."""
    if k == 0:
        return {0}
    mask = (1 << (2 * k)) - 1
    nbytes = (k + 3) >> 2
    rev = int.from_bytes(bits.to_bytes(nbytes, "big").translate(_REVERSED_BYTE), "little") >> (8 * nbytes - 2 * k)
    # rotation i of the word, then rotation i of its reversal
    dihedral = [((x >> (2 * i)) | (x << (2 * (k - i)))) & mask for i in range(k) for x in (bits, rev)]
    s = _swap01(dihedral, k)
    t = _swap12(dihedral, k)
    ts = _swap12(s, k)
    return {*dihedral, *s, *t, *ts, *_swap01(t, k), *_swap01(ts, k)}


def reflection_least(words: list, k: int) -> list:
    """The words of a list closed under reversal and (12) that are least in their class."""
    out = []
    for i in range(0, len(words), _LANE_SLICE):
        ws = words[i : i + _LANE_SLICE]
        images = zip(ws, _reverse(ws, k), _swap12(ws, k), _reverse12(ws, k))
        out += [w for w, r, s, rs in images if w <= r and w <= s and w <= rs]
    return out


@lru_cache(maxsize=None)
def word_orbits(k: int) -> tuple:
    """The rotation/reversal/relabelling orbits of the 3-letter words of length k.

    One ``(orbit_rep, images)`` pair per orbit, ``images`` a tuple of every
    packed word of the orbit.  The sweep takes the first word not seen yet,
    names its orbit with ``orbit_rep`` and marks its images, so ``orbit_rep``
    runs once per orbit.  It visits only the words that start with the letter
    0 (every third packed word), since a relabelling puts one in every orbit.
    Cached: the dense solve and its residual share it.
    """
    seen = set()
    out = []
    for w in packed_words(3, k)[k][::3]:
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
    """Truncated non-commutative power series: word -> g-series coefficient.

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
        return NCSeries({EMPTY_WORD: XLaurent.constant(1, 0, ng)}, lmax, ng)

    # -- queries ------------------------------------------------------------

    def coefficient(self, word: Word) -> XLaurent:
        return self.terms.get(word, XLaurent.zero(0, self.ng))

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

    def shift_g(self, k: int) -> "NCSeries":
        """Multiply every coefficient by g**k, truncating."""
        return NCSeries({w: g.shift_g(k) for w, g in self.terms.items()}, self.lmax, self.ng)

    # -- products and operators -------------------------------------------------

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        """Concatenation (Cauchy) product; words beyond lmax dropped.

        Each operand's coefficients become integer rows over one common
        denominator, each output word accumulates its products in one row
        set, and every output coefficient is built once at the end.
        """
        self._check(other)
        ng = self.ng
        a, da = _int_rows([v.coeffs[0] for v in self.terms.values()])
        b, db = _int_rows([v.coeffs[0] for v in other.terms.values()])
        by_len: dict = {}
        for v, bv in zip(other.terms, b):
            by_len.setdefault(v.n, []).append((v, bv))
        out: dict = {}
        for u, au in zip(self.terms, a):
            for vlen in range(self.lmax - u.n + 1):
                for v, bv in by_len.get(vlen, ()):
                    w = u + v
                    rows = out.get(w)
                    if rows is None:
                        rows = out[w] = [[] for _ in range(ng + 1)]
                    _series_addmul(rows, au, bv)
        den = da * db
        return NCSeries({w: XLaurent._from_ints(0, [rows], den, 0, ng) for w, rows in out.items()}, self.lmax, ng)

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

