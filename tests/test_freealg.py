"""Words, non-commutative series and the boundary derivative operators."""

import itertools
import random

import pytest

from pottsloop.freealg import (
    EMPTY_WORD,
    GENERATORS,
    LETTERS,
    NCSeries,
    Word,
    all_words,
    apply_operator_string,
    orbit_rep,
    reflection_least,
    word_orbits,
)
from pottsloop.ring import GSeries


def w(s):
    return Word.from_string(s)


def mono(s, lmax=6, ng=2):
    return NCSeries.monomial(w(s), lmax, ng)


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
        assert word.drop_last().letters() == tuple(ls[:-1])
        assert word.prepend(2).letters() == (2, *ls)
        assert word.append(1).letters() == (*ls, 1)


def test_left_delta_examples():
    assert mono("120").left_delta(1) == mono("20")
    assert mono("02").left_delta(1).is_zero()
    assert NCSeries.unit(6, 2).left_delta(0).is_zero()


def test_right_delta_examples():
    assert mono("201").right_delta(1) == mono("20")
    assert mono("20").right_delta(1).is_zero()
    assert mono("1").right_delta(1) == NCSeries.unit(6, 2)


def test_delta_cancels_letter_multiplication():
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for _k in range(4):
            word = Word([rng.randrange(3) for _ in range(rng.randrange(4))])
            terms[word] = GSeries([rng.randint(-2, 2), rng.randint(-2, 2)], 1)
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
    x0 = NCSeries.monomial(w("0"), lmax, ng)
    x1 = NCSeries.monomial(w("1"), lmax, ng)
    assert x0 * x1 == NCSeries.monomial(w("01"), lmax, ng)

    one = NCSeries.unit(lmax, ng)
    a = one + x0
    assert a * one == a

    s = x0 + x1
    sq = s * s
    assert sorted(str(word) for word in sq.words()) == ["00", "01", "10", "11"]


def test_nc_mul_associative_and_unital_random():
    rng = random.Random(7)
    lmax, ng = 5, 1

    def rnd():
        terms = {}
        for _ in range(3):
            word = Word([rng.randrange(3) for _ in range(rng.randrange(3))])
            terms[word] = GSeries([rng.randint(-2, 2), rng.randint(-1, 1)], ng)
        return NCSeries(terms, lmax, ng)

    one = NCSeries.unit(lmax, ng)
    for _ in range(15):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert a * one == a and one * a == a


def test_nc_mul_matches_pairwise_product_random():
    rng = random.Random(11)
    ng = 2
    for _ in range(30):
        lmax = rng.randrange(6)

        def rnd():
            terms = {}
            for _ in range(rng.randrange(8)):
                word = Word([rng.randrange(3) for _ in range(rng.randrange(lmax + 1))])
                terms[word] = GSeries([rng.randint(-2, 2) for _ in range(ng + 1)], ng)
            return NCSeries(terms, lmax, ng)

        a, b = rnd(), rnd()
        want = {}
        for u, au in a.terms.items():
            for v, bv in b.terms.items():
                if len(u) + len(v) <= lmax:
                    want[u + v] = want.get(u + v, GSeries.zero(ng)) + au * bv
        assert a * b == NCSeries(want, lmax, ng)


def test_orbit_rep_names_each_orbit_once():
    perms = list(itertools.permutations(LETTERS))
    norbits = []
    for k in range(8):
        seen = set()
        reps = set()
        for word in all_words(k):
            if word in seen:
                continue
            orbit = {img.relabel(p) for d in (word, word.reverse()) for img in d.rotations() for p in perms}
            rep = orbit_rep(word.bits, k)
            assert Word._raw(k, rep) in orbit
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
            orbit = {img.relabel(p) for d in (word, word.reverse()) for img in d.rotations() for p in perms}
            assert {Word._raw(k, x) for x in images} == orbit
    assert norbits == [1, 1, 2, 3, 6, 9, 22, 40]


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
    assert counts == [1, 1, 2, 3, 6, 9, 22, 40, 100, 225, 582]


def test_packed_images_match_the_word_operations():
    for k in range(1, 7):
        words = list(all_words(k))
        rot, rev, s01, s12 = (image_of([word.bits for word in words], k) for image_of in GENERATORS)
        for i, word in enumerate(words):
            ls = word.letters()
            assert rot[i] == Word(ls[1:] + ls[:1]).bits
            assert rev[i] == word.reverse().bits
            assert s01[i] == word.relabel((1, 0, 2)).bits
            assert s12[i] == word.relabel((0, 2, 1)).bits
    for k in range(8):
        least = set()
        for word in all_words(k):
            images = (word, word.reverse(), word.relabel((0, 2, 1)), word.reverse().relabel((0, 2, 1)))
            least.add(min(img.bits for img in images))
        assert set(reflection_least([word.bits for word in all_words(k)], k)) == least


def test_apply_operator_string_prefix_extraction():
    # stripping x1, x1, x2 in sequence isolates words with prefix 112
    base = mono("11201", 6, 2) + mono("0112", 6, 2)
    out = apply_operator_string([("L", 1), ("L", 1), ("L", 2)], base)
    assert out == mono("01", 6, 2)
    assert apply_operator_string([], base) == base


def test_apply_operator_string_two_sided():
    out = apply_operator_string([("L", 1), ("R", 1)], mono("101"))
    assert out == mono("0")


def test_permute_letters():
    a = mono("01")
    assert a.permute_letters((2, 1, 0)) == mono("21")
    assert a.permute_letters((0, 1, 2)) == a
    cycled = a
    for _ in range(3):
        cycled = cycled.permute_letters((1, 2, 0))
    assert cycled == a


def test_restrict():
    a = NCSeries.unit(6, 1) + mono("0", 6, 1) + mono("1", 6, 1)
    killed = a.restrict({1, 2})
    assert killed == NCSeries.unit(6, 1) + mono("0", 6, 1)
    assert a.restrict(set()) == a
    assert a.restrict({0, 1, 2}) == NCSeries.unit(6, 1)


def test_equality_prunes_zeros():
    z = GSeries.zero(1)
    a = NCSeries({w("01"): GSeries.one(1), w("2"): z}, 6, 1)
    b = NCSeries({w("01"): GSeries.one(1)}, 6, 1)
    assert a == b


def test_cyclic_concatenation_rule_on_solved_series(small_table):
    """For the solved (cyclic) series, right-operator strings concatenate
    onto the left string; on a non-cyclic witness the rule fails."""
    phi = small_table.to_ncseries(6, 2)
    rng = random.Random(11)
    for _ in range(25):
        p = [rng.randrange(3) for _ in range(rng.randrange(3))]
        q = [rng.randrange(3) for _ in range(rng.randrange(1, 3))]
        if len(p) + len(q) > 4:
            continue
        lhs_ops = [("L", a) for a in p] + [("R", b) for b in reversed(q)]
        rhs_ops = [("L", a) for a in q + p]
        lhs = apply_operator_string(lhs_ops, phi)
        rhs = apply_operator_string(rhs_ops, phi)
        # compare where both sides are complete: words short enough that the
        # reconstructed full words stay inside the solved region
        budget = small_table.S - len(p) - len(q) - small_table.ng
        for u in all_words(max(budget, 0)):
            assert lhs.coefficient(u) == rhs.coefficient(u)

    witness = NCSeries.monomial(w("01"), 6, 2)
    lhs = apply_operator_string([("R", 1)], witness)
    rhs = apply_operator_string([("L", 1)], witness)
    assert not lhs.is_zero()
    assert rhs.is_zero()
    assert lhs != rhs
