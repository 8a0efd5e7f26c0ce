"""Words, non-commutative series and the boundary derivative operators."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from pottsloop.freealg import NCSeries
from pottsloop.orbits import (
    _LANE_SLICE,
    GENERATORS,
    _orbit_images,
    _reverse,
    _reverse12,
    _reverse_word,
    _rotate,
    _swap01,
    _swap12,
    orbit_rep,
    reflection_least,
    symmetry_breaks,
    word_orbits,
)
from pottsloop.words import EMPTY_WORD, LETTERS, Word, all_words
from conftest import burnside_orbits, drop_last, from_fractions, gseries, monomial, right_delta


def w(s):
    return Word.from_string(s)


def mono(s, lmax=6, ng=2):
    return monomial(w(s), lmax, ng)


def test_word_basics():
    word = w("01121")
    assert str(word) == "01121"
    assert len(word) == 5
    assert word[0] == 0 and word[4] == 1
    assert str(EMPTY_WORD) == "ε"
    assert Word.from_string("ε") == EMPTY_WORD
    assert w("012").reverse() == w("210")
    assert w("01") + w("2") == w("012")
    assert w("012").relabel((2, 1, 0)) == w("210")
    assert sorted(str(r) for r in w("011").rotations()) == ["011", "101", "110"]


def test_word_surgery_matches_letters():
    rng = random.Random(1)
    for _ in range(50):
        ls = [rng.randrange(3) for _ in range(rng.randrange(1, 9))]
        word = Word(ls)
        assert word.letters() == tuple(ls)
        assert word.drop_first().letters() == tuple(ls[1:])
        assert drop_last(word).letters() == tuple(ls[:-1])
        assert word.prepend(2).letters() == (2, *ls)


def test_left_delta_examples():
    assert mono("120").left_delta(1) == mono("20")
    assert mono("02").left_delta(1).is_zero()
    assert NCSeries.unit(6, 2).left_delta(0).is_zero()


def test_right_delta_examples():
    assert right_delta(mono("201"), 1) == mono("20")
    assert right_delta(mono("20"), 1).is_zero()
    assert right_delta(mono("1"), 1) == NCSeries.unit(6, 2)


def test_delta_cancels_letter_multiplication():
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for _k in range(4):
            word = Word([rng.randrange(3) for _ in range(rng.randrange(4))])
            terms[word] = gseries([rng.randint(-2, 2), rng.randint(-2, 2)], 1)
        a = NCSeries(terms, 6, 1)
        for i in range(3):
            for j in range(3):
                out = a.mul_letter_left(j).left_delta(i)
                if i == j:
                    assert out == a
                else:
                    assert out.is_zero()


def test_nc_mul_examples():
    lmax, ng = 6, 1
    x0 = monomial(w("0"), lmax, ng)
    x1 = monomial(w("1"), lmax, ng)
    assert x0 * x1 == monomial(w("01"), lmax, ng)

    one = NCSeries.unit(lmax, ng)
    a = one + x0
    assert a * one == a

    s = x0 + x1
    sq = s * s
    assert sorted(str(word) for word in sq.terms) == ["00", "01", "10", "11"]


def test_nc_mul_associative_and_unital_random():
    rng = random.Random(7)
    lmax, ng = 5, 1

    def rnd():
        terms = {}
        for _ in range(3):
            word = Word([rng.randrange(3) for _ in range(rng.randrange(3))])
            terms[word] = gseries([rng.randint(-2, 2), rng.randint(-1, 1)], ng)
        return NCSeries(terms, lmax, ng)

    one = NCSeries.unit(lmax, ng)
    for _ in range(15):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert a * one == a and one * a == a


def _random_ncseries(rng, lmax, ng, coeff):
    terms = {}
    for _ in range(rng.randrange(8)):
        word = Word([rng.randrange(3) for _ in range(rng.randrange(lmax + 1))])
        terms[word] = gseries([coeff() for _ in range(ng + 1)], ng)
    return NCSeries(terms, lmax, ng)


def _pairwise_product(a, b):
    want = {}
    for u, au in a.terms.items():
        for v, bv in b.terms.items():
            if len(u) + len(v) <= a.lmax:
                want[u + v] = want.get(u + v, gseries((), a.ng)) + au * bv
    return NCSeries(want, a.lmax, a.ng)


def test_nc_mul_matches_pairwise_product_random():
    rng = random.Random(11)
    ng = 2
    for _ in range(30):
        lmax = rng.randrange(6)
        a, b = (_random_ncseries(rng, lmax, ng, lambda: rng.randint(-2, 2)) for _ in range(2))
        assert a * b == _pairwise_product(a, b)


def test_nc_mul_matches_pairwise_product_over_denominators_random():
    # Fraction and c-polynomial coefficients put each operand over a common denominator
    rng = random.Random(13)
    ng = 2

    def coeff():
        return from_fractions(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 6))) for _ in range(rng.randrange(4))
        )

    dens = set()
    for _ in range(30):
        lmax = rng.randrange(1, 6)
        a, b = (_random_ncseries(rng, lmax, ng, coeff) for _ in range(2))
        dens |= {p.den for s in (a, b) for gs in s.terms.values() for row in gs.coeffs for p in row}
        assert a * b == _pairwise_product(a, b)
    assert {2, 3, 4} <= dens


def _orbit(word: Word) -> set:
    """Every word of a word's orbit: the rotations of each of its six relabellings and of their reversals."""
    relabelled = [word.relabel(p) for p in itertools.permutations(LETTERS)]
    return {img for d in relabelled for r in (d, d.reverse()) for img in r.rotations()}


def test_orbit_rep_names_each_orbit_once():
    norbits = []
    for k in range(9):
        seen = set()
        reps = set()
        for word in all_words(k):
            if word in seen:
                continue
            orbit = _orbit(word)
            rep = orbit_rep(word.bits, k)
            assert rep == min(orbit, key=str).bits, str(word)  # the orbit's lexicographically least word
            for img in orbit:
                assert orbit_rep(img.bits, k) == rep, (str(img), str(word))
            assert rep not in reps, str(word)  # words of different orbits never share one
            reps.add(rep)
            seen |= orbit
        assert len(seen) == 3**k
        norbits.append(len(reps))
        # the enumerator lists the same orbits, each named by orbit_rep
        assert {rep for rep, _ in word_orbits(k)} == reps
        for rep, images in word_orbits(k):
            word = Word._raw(k, rep)
            assert {Word._raw(k, x) for x in images} == _orbit(word)
    assert norbits == [1, 1, 2, 3, 6, 9, 22, 40, 100]


def _short_runs(rng, pair, n) -> list:
    """n letters in runs of one to three, alternating between the two letters of pair."""
    out, i = [], 0
    while len(out) < n:
        out += [pair[i]] * rng.randint(1, 3)
        i ^= 1
    return out[:n]


def test_orbit_rep_is_the_least_word_of_long_orbits():
    # every word of up to 8 letters is checked with the orbit enumeration above
    rng = random.Random(24)
    words = []
    for k in range(9, 41):
        a, b = rng.sample(LETTERS, 2)
        words += [
            Word(rng.choice(LETTERS) for _ in range(k)),
            Word([a] * k),  # constant
            Word(i % 2 for i in range(k)),  # alternating: every letter starts a longest run
            # the longest run wraps past the last letter: it holds the first two letters and the last two
            Word([a, a] + _short_runs(rng, (b, 3 - a - b), k - 4) + [a, a]),
        ]
    for word in words:
        assert orbit_rep(word.bits, len(word)) == min(_orbit(word), key=str).bits, str(word)


def test_single_word_reversal_takes_any_length():
    rng = random.Random(5)
    for k in range(41):
        for word in [Word(rng.choice(LETTERS) for _ in range(k)) for _ in range(5)] + [Word([2] * k)]:
            assert _reverse_word(word.bits, k) == word.reverse().bits


def test_from_string_reads_only_the_letters_0_1_2():
    # int() would read any Unicode decimal digit, so "٢1" was the word 21
    for s, ch in (("٢1", "٢"), ("０", "０"), ("0a", "a"), ("0 1", " ")):
        with pytest.raises(ValueError) as err:
            Word.from_string(s)
        assert str(err.value) == f"letter {ch!r} of word {s!r} outside alphabet {{0,1,2}}"
    assert [str(Word.from_string(s)) for s in (" 012 ", "", "ε")] == ["012", "ε", "ε"]


def test_orbit_images_are_the_orbit_on_one_lane_per_image():
    # every word of up to 7 letters, and seeded words up to the 32 letters of one 64-bit lane
    rng = random.Random(26)
    words = [word for k in range(8) for word in all_words(k)]
    words += [Word(rng.choice(LETTERS) for _ in range(k)) for k in range(17, 33) for _ in range(40)]
    for word in words:
        assert _orbit_images(word.bits, len(word)) == {img.bits for img in _orbit(word)}, str(word)
    with pytest.raises(ValueError, match="33-letter words: a packed lane holds at most 32 letters"):
        _orbit_images(Word([0, 1, 2] * 11).bits, 33)


def test_word_orbits_unchanged_up_to_twelve_letters():
    # the sweep order and each orbit's image order, as first listed with the string canonicaliser
    orbits = [word_orbits.__wrapped__(k) for k in range(13)]
    assert hashlib.sha256(repr(orbits).encode()).hexdigest() == (
        "1a2d346f5e4f3aece08262b65d3ecd0cd6f15a028ac1e9cb8c2b5226d684e6f3"
    )
    # the orbit census: a canonicaliser that split an orbit would pass every value check
    counts = [len(o) for o in orbits]
    assert counts == [burnside_orbits(k) for k in range(13)]
    assert counts == [1, 1, 2, 3, 6, 9, 22, 40, 100, 225, 582, 1464, 3960]


def test_word_orbits_partition_the_words_up_to_ten_letters():
    counts = []
    for k in range(11):
        covered = []
        for rep, images in word_orbits(k):
            assert all(orbit_rep(x, k) == rep for x in images)
            covered += images
        # every word in exactly one orbit: 3**k distinct k-letter words, none with the letter 3
        low = int("01" * k or "0", 2)
        assert len(covered) == len(set(covered)) == 3**k
        assert all(x >> (2 * k) == 0 and not x & (x >> 1) & low for x in covered)
        counts.append(len(word_orbits(k)))
        # the sweep order, which fixes the residual order: by each orbit's least word that starts with 0
        firsts = [min(x for x in images if not x & 3) for _, images in word_orbits(k)]
        assert firsts == sorted(firsts)
    assert counts == [1, 1, 2, 3, 6, 9, 22, 40, 100, 225, 582]


def test_packed_images_match_the_word_operations():
    rng = random.Random(15)
    # every word of up to 6 letters and of 8 (6,561 words: more than one of the callers'
    # 2,048-word slices, in one buffer), then seeded words up to the 32 letters of a 64-bit lane
    cases = [(k, list(all_words(k))) for k in (1, 2, 3, 4, 5, 6, 8)]
    cases += [(k, [Word(rng.choice(LETTERS) for _ in range(k)) for _ in range(40)]) for k in range(17, 33)]
    assert GENERATORS == (_rotate, _reverse12, _swap01)
    for k, words in cases:
        packed = [word.bits for word in words]
        maps = (_rotate, _reverse, _reverse12, _swap01, _swap12)
        rot, rev, rev12, s01, s12 = (image_of(packed, k) for image_of in maps)
        for i, word in enumerate(words):
            ls = word.letters()
            assert rot[i] == Word(ls[1:] + ls[:1]).bits
            assert rev[i] == word.reverse().bits
            assert rev12[i] == word.reverse().relabel((0, 2, 1)).bits
            assert s01[i] == word.relabel((1, 0, 2)).bits
            assert s12[i] == word.relabel((0, 2, 1)).bits
    for image_of in (_reverse, _reverse12):
        with pytest.raises(ValueError, match="32"):
            image_of([0], 33)
    for k in range(8):
        least = set()
        for word in all_words(k):
            images = (word, word.reverse(), word.relabel((0, 2, 1)), word.reverse().relabel((0, 2, 1)))
            least.add(min(img.bits for img in images))
        assert set(reflection_least([word.bits for word in all_words(k)], k)) == least


def test_symmetry_breaks_across_slice_boundaries():
    # every 8-letter word (6,561, four slices of 2,048) holds a value of its orbit; one
    # image corrupted in the first slice, one in the last, and one image missing
    k = 8
    layer = {w: orbit_rep(w, k) + 1 for w in (word.bits for word in all_words(k))}
    keys = list(layer)
    layer[keys[5]] += 1
    layer[keys[-7]] += 1
    del layer[keys[3000]]
    # per word: rotation, the reversal fused with (12), then (01); slice by slice and,
    # inside one slice, generator by generator, as the report orders its words
    maps = (
        lambda ls: ls[1:] + ls[:1],
        lambda ls: Word(reversed(ls)).relabel((0, 2, 1)).letters(),
        lambda ls: Word(ls).relabel((1, 0, 2)).letters(),
    )
    items, want = list(layer.items()), {}
    for i in range(0, len(items), _LANE_SLICE):
        for image_of in maps:
            for w, v in items[i : i + _LANE_SLICE]:
                x = Word(image_of(Word._raw(k, w).letters())).bits
                if layer.get(x, 0) != v:
                    want.setdefault(w, x)
    got = symmetry_breaks(layer, k)
    assert list(got.items()) == list(want.items())
    assert keys[5] in got and keys[-7] in got and keys[3000] in got.values()
    words = [word.bits for word in all_words(k)]
    assert reflection_least((w for w in words), k) == reflection_least(words, k)


def test_three_generators_close_to_the_orbits():
    # (reversal (12)) (01) (reversal (12)) = (02), so the three maps generate every
    # rotation, the reversal and all of S3: each orbit is the closure of its representative
    for k in range(1, 9):
        for rep, images in word_orbits(k):
            closure = {rep}
            frontier = [rep]
            while frontier:
                frontier = list({x for image_of in GENERATORS for x in image_of(frontier, k)} - closure)
                closure.update(frontier)
            assert closure == set(images), (k, rep)


def test_apply_operator_string_prefix_extraction():
    # stripping x1, x1, x2 in sequence isolates words with prefix 112
    base = mono("11201", 6, 2) + mono("0112", 6, 2)
    out = base.left_delta(1).left_delta(1).left_delta(2)
    assert out == mono("01", 6, 2)


def test_apply_operator_string_two_sided():
    out = right_delta(mono("101").left_delta(1), 1)
    assert out == mono("0")


def test_equality_prunes_zeros():
    z = gseries((), 1)
    a = NCSeries({w("01"): gseries([1], 1), w("2"): z}, 6, 1)
    b = NCSeries({w("01"): gseries([1], 1)}, 6, 1)
    assert a == b


def test_cyclic_concatenation_rule_on_solved_series(small_table):
    """For the solved (cyclic) series, right-operator strings concatenate
    onto the left string; on a non-cyclic witness the rule fails."""
    phi = small_table.to_ncseries(5, 2)
    rng = random.Random(11)
    for _ in range(25):
        p = [rng.randrange(3) for _ in range(rng.randrange(3))]
        q = [rng.randrange(3) for _ in range(rng.randrange(1, 3))]
        if len(p) + len(q) > 4:
            continue
        lhs = rhs = phi
        for a in p:
            lhs = lhs.left_delta(a)
        for b in reversed(q):
            lhs = right_delta(lhs, b)
        for a in q + p:
            rhs = rhs.left_delta(a)
        # compare where both sides are complete: words short enough that the
        # reconstructed full words stay inside the solved region
        budget = small_table.S - len(p) - len(q) - small_table.ng
        for u in all_words(max(budget, 0)):
            assert lhs.coefficient(u) == rhs.coefficient(u)

    witness = monomial(w("01"), 6, 2)
    lhs = right_delta(witness, 1)
    rhs = witness.left_delta(1)
    assert not lhs.is_zero()
    assert rhs.is_zero()
    assert lhs != rhs
