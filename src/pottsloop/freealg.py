"""Words over the three boundary letters and truncated non-commutative series.

A boundary condition of a triangulated disk is a word in the letters
``{0, 1, 2}`` (one letter per boundary edge, read from the marked edge).
``NCSeries`` maps words to g-series coefficients (``XLaurent`` of x-order
0) and carries the boundary derivative operators that add or strip letters
on either side.

A disk amplitude is a trace, so it is invariant under cyclic rotation of its
word, under reversal (transposition) and under relabelling of the spins;
``orbit_rep`` names one word per orbit of that group, on the packed integer
alone: a run mask of equal neighbours gives the starts of the longest
cyclic runs, each start gives one candidate in each reading direction,
a bit map relabels each candidate in first-occurrence order, and the
least candidate is the one lower at the lowest differing letter.
``word_orbits`` lists the orbits of one word length, with one flag byte
per word that starts with 0 and one Python step per orbit,
``GENERATORS`` maps lists of packed words by three generators of the
group and ``symmetry_breaks`` checks a table layer against them, one
slice of words at a time.  The list reversal and the orbit images treat
each word as one 64-bit lane, so they take words of at most 32 letters
and refuse longer ones; the single-word reversal takes any length.
``check_letters`` and ``check_order`` are the refusals of a word outside
the model and of a negative triangle order.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from itertools import islice, repeat
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

# the four letters of one packed byte in reverse order, and then relabelled by (12)
_REVERSED_BYTE = bytes((b >> 6) | ((b >> 2) & 12) | ((b << 2) & 48) | ((b & 3) << 6) for b in range(256))
_REVERSED_12_BYTE = bytes(((r & 85) << 1) | ((r >> 1) & 85) for r in _REVERSED_BYTE)


def _reverse_word(bits: int, k: int) -> int:
    """The reversal of one packed k-letter word, of any length.

    The bytes read highest first, each with its four letters reversed, hold
    the word reversed from the lowest byte up, after the zero padding
    letters of the top byte; one shift drops that padding.
    """
    n = (k + 3) >> 2
    return int.from_bytes(bits.to_bytes(n, "big").translate(_REVERSED_BYTE), "little") >> (8 * n - 2 * k)


def _first_occurrence(w: int, x: int, y: int, low: int) -> int:
    """Relabel a packed word by the permutation that takes x to 0 and y to 1 (x != y).

    Each letter is a high and a low bit, ``low`` the low bit of every letter;
    (01) flips the low bit where the high bit is clear, (02) the high bit
    where the low bit is clear, (12) swaps the two, and each 3-cycle writes
    one bit from the other and the second from neither.
    """
    if x == 0:
        return w if y == 1 else ((w & low) << 1) | ((w >> 1) & low)  # identity, (12)
    if x == 1:
        if y == 0:
            return w ^ (low & ~(w >> 1))  # (01)
        return ((w >> 1) & low) | ((low & ~(w | w >> 1)) << 1)  # 1 -> 0 -> 2 -> 1
    if y == 1:
        return w ^ ((low & ~w) << 1)  # (02)
    return ((w & low) << 1) | (low & ~(w | w >> 1))  # 2 -> 0 -> 1 -> 2


def orbit_rep(bits: int, k: int) -> int:
    """Packed representative of a word's rotation/reversal/relabelling orbit.

    The representative is the lexicographically least first-occurrence
    relabelling of the k rotations of the word and of its reversal.  Each of
    those starts with its first run of equal letters renamed to 0s and the
    next letter renamed to 1, so only images that start at a longest cyclic
    run, in either reading direction, can be least.  All on the packed
    integer: the low bit of letter i is set in the run mask when letters i
    and i + 1 (cyclically) are equal, and ANDing the mask with itself
    rotated by one letter until it empties leaves the longest run length L
    and the start of every longest run.  Each start gives two candidates:
    the word rotated to start there, and its reversal rotated to start at
    the run's last letter.  A candidate's first letter and the letter after
    the run choose its first-occurrence relabelling, one bit map; the least
    candidate is the one lower at the lowest differing letter, since the
    first letter is packed lowest.  A constant word returns 0.
    """
    if k < 2:
        return 0
    width, top = 2 * k, 2 * k - 2
    mask = (1 << width) - 1
    low = mask // 3
    d = bits ^ ((bits >> 2) | ((bits & 3) << top))
    runs = low & ~(d | d >> 1)
    if runs == low:
        return 0
    if runs:
        run = 2
        while True:
            longer = runs & ((runs >> 2) | ((runs & 1) << top))
            if not longer:
                break
            runs = longer
            run += 1
    else:
        runs, run = low, 1
    rev = _reverse_word(bits, k)
    after = 2 * run
    best = mask  # every candidate starts with 0, so it is below this
    while runs:
        start = runs & -runs
        runs ^= start
        i = start.bit_length() - 1  # the run starts at letter i / 2 of the word
        j = (width - i - after) % width  # and its last letter is letter j / 2 of the reversal
        for w in (((bits >> i) | (bits << (width - i))) & mask, ((rev >> j) | (rev << (width - j))) & mask):
            w = _first_occurrence(w, w & 3, (w >> after) & 3, low)
            diff = w ^ best
            if diff:
                letter = 3 << ((diff & -diff).bit_length() - 1 & ~1)
                if w & letter < best & letter:
                    best = w
    return best


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
    # Each word is a 64-bit lane of 32 letters, k of them used.  Pack the lanes
    # highest byte first and reverse the letters of each byte, so the bytes read
    # lowest first hold each lane reversed; then drop the 32 - k zero padding
    # letters, now the low bits of each lane, with one shift of the whole
    # buffer, which moves only zeros across lane boundaries.  A table that also
    # relabels must fix the letter 0, so that the padding stays zero.  Callers
    # pass at most _LANE_SLICE words, which bounds the buffer.
    if k > _LANE_LETTERS:
        raise ValueError(f"cannot reverse {k}-letter words: a packed lane holds at most {_LANE_LETTERS} letters")
    buf = struct.pack(f">{len(words)}Q", *words).translate(table)
    rev = int.from_bytes(buf, "little") >> (2 * (_LANE_LETTERS - k))
    return list(struct.unpack(f"<{len(words)}Q", rev.to_bytes(len(buf), "little")))


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
    0.  Its keys and values are read in slices of ``_LANE_SLICE``, which
    bound the scratch lists: no list holds the whole layer.
    """
    keys, values = iter(layer), iter(layer.values())
    broken = {}
    while True:
        ws = list(islice(keys, _LANE_SLICE))
        if not ws:
            return broken
        vs = list(islice(values, _LANE_SLICE))
        for image_of in GENERATORS:
            images = image_of(ws, k)
            if list(map(layer.get, images, repeat(0))) != vs:
                for w, x, v in zip(ws, images, vs):
                    if layer.get(x, 0) != v:
                        broken.setdefault(w, x)


def _orbit_images(bits: int, k: int) -> set:
    """Every packed word in the rotation/reversal/relabelling orbit of a k-letter word.

    The 2k rotations of the word and of its reversal are the 64-bit lanes of
    one integer, and each relabelling (``_first_occurrence``) is one bit
    operation on all of them, with the low bit of each letter of each lane
    as mask; a letter never moves a bit out of its lane.  So it takes words
    of at most 32 letters.
    """
    if k == 0:
        return {0}
    if k > _LANE_LETTERS:
        raise ValueError(f"cannot relabel {k}-letter words: a packed lane holds at most {_LANE_LETTERS} letters")
    mask = (1 << (2 * k)) - 1
    rev = _reverse_word(bits, k)
    # rotation i of the word, then rotation i of its reversal
    dihedral = [((x >> (2 * i)) | (x << (2 * (k - i)))) & mask for i in range(k) for x in (bits, rev)]
    # lanes in native byte order, read back through a memoryview: no tuple of
    # the unpacked lanes, and each word a compact int, as the cache keeps it
    width = 16 * k
    low = _low_bits(k) * ((1 << (8 * width)) // ((1 << 64) - 1))  # every lane's low bits
    d = int.from_bytes(struct.pack(f"{2 * k}Q", *dihedral), sys.byteorder)
    # the five other relabellings, (01) and (12) first: the insertion order fixes the set's
    # iteration order, which the images of word_orbits keep
    images = set(dihedral)
    for x, y in ((1, 0), (0, 2), (1, 2), (2, 0), (2, 1)):
        images.update(memoryview(_first_occurrence(d, x, y, low).to_bytes(width, sys.byteorder)).cast("Q"))
    return images


def reflection_least(words, k: int) -> list:
    """The words of an iterable closed under reversal and (12) that are least in their class, read in slices."""
    words, out = iter(words), []
    while True:
        ws = list(islice(words, _LANE_SLICE))
        if not ws:
            return out
        for image_of in (_reverse, _swap12, _reverse12):  # one image list at a time, of the words kept so far
            ws = [w for w, x in zip(ws, image_of(ws, k)) if w <= x]
        out += ws


@lru_cache(maxsize=None)
def word_orbits(k: int) -> tuple:
    """The rotation/reversal/relabelling orbits of the 3-letter words of length k.

    One ``(orbit_rep, images)`` pair per orbit, ``images`` a tuple of every
    packed word of the orbit.  The sweep visits only the words that start
    with the letter 0, in ascending packed order, since a relabelling puts
    one in every orbit.  Such a word w is flagged at byte w >> 2 of one
    buffer of 4^(k-1) bytes, whose indices that hold the unused letter 3 are
    flagged up front; the next unflagged byte is the next unlisted word, so
    the sweep's loop runs once per orbit: it names the orbit with
    ``orbit_rep`` and flags its images that start with 0.  The buffer takes
    256 KiB at k = 10, 4 MiB at 12 and 64 MiB at 14; the set of every image
    that it replaces took 2, 16 and 128 MiB for its hash table alone, and was
    probed word by word.  Cached: the dense solve and its residual share it.
    """
    seen = b"\x00"
    for i in range(k - 1):
        seen = seen * 3 + b"\x01" * 4**i  # the letters 0, 1, 2 and then 3 at letter i
    seen = bytearray(seen)
    out = []
    v = seen.find(0)
    while v >= 0:
        images = _orbit_images(v << 2, k)
        for x in images:
            if not x & 3:
                seen[x >> 2] = 1
        out.append((orbit_rep(v << 2, k), tuple(images)))
        v = seen.find(0, v + 1)
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
    def unit(lmax: int, ng: int) -> "NCSeries":
        return NCSeries({EMPTY_WORD: XLaurent.constant(1, 0, ng)}, lmax, ng)

    # -- queries ------------------------------------------------------------

    def coefficient(self, word: Word) -> XLaurent:
        return self.terms.get(word, XLaurent.zero(0, self.ng))

    def is_zero(self) -> bool:
        return not self.terms

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

