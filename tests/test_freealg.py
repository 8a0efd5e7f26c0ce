"""Words, non-commutative series and the boundary derivative operators."""

import itertools
import random
from fractions import Fraction

import pytest

from pottsloop.freealg import (
    EMPTY_WORD,
    GENERATORS,
    LETTERS,
    NCSeries,
    Word,
    all_words,
    orbit_rep,
    reflection_least,
    word_orbits,
)
from pottsloop.freealg import _reverse, _reverse12, _rotate, _swap01, _swap12
from conftest import drop_last, from_fractions, gseries, monomial, right_delta


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
        assert word.append(1).letters() == (*ls, 1)


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
    assert sorted(str(word) for word in sq.words()) == ["00", "01", "10", "11"]


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
    rng = random.Random(15)
    # every word of up to 6 letters and of 8 (6,561 words: the reversal crosses
    # several 2,048-word slices), then seeded words up to the 32 letters of a 64-bit lane
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
    phi = small_table.to_ncseries(6, 2)
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
