"""Graded fixed-point solver: examples, symmetries, residuals, pure gravity."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import burnside_orbits, grade_mask, memo_slots, shift_x, solve_unreduced
from pottsloop.catalog import Amp
from pottsloop.freealg import NCSeries
from pottsloop.loopcat import _amp_rows, catalog_edge, check_loops, check_sd
from pottsloop.model import ModelSpec, TruncationError
from pottsloop.oracle import planar_moment
from pottsloop.orbits import orbit_rep, reflection_least, word_orbits
from pottsloop.poly import Poly
from pottsloop.recursion import LazyTable, SolutionTable, _singletons, _splits, check_headroom, solve_series
from pottsloop.series import XLaurent
from pottsloop.solver import (
    _recast_words,
    _residual,
    build_rhs_potts,
    generating_residual,
    recast_residual_rect,
    solve_pure_gravity,
)
from pottsloop.words import Word, all_words


def _one_slot_table(packed: int) -> SolutionTable:
    """A symbolic table whose one slot (00, g^0) holds the given packed value."""
    spec = ModelSpec(kind="potts3", c="symbolic", ng=0, ltarget=2)
    return SolutionTable(spec, 2, {(0, 0): {0: 1}, (0, 2): {0: packed}})


def test_pack_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        p = Poly([rng.randrange(0, 1 << 40) for _ in range(rng.randrange(1, 6))])
        packed = sum(a << (64 * e) for e, a in enumerate(p.coeffs))
        assert _one_slot_table(packed).p_coeff("00", 0) == p


@pytest.mark.parametrize(
    "read", [lambda t: t.p_coeff("00", 0), lambda t: _amp_rows(t, Amp(""), 2, 0)], ids=["p_coeff", "amplitude"]
)
def test_packed_digit_guard_refuses_on_read(read):
    # a digit at 2**62 leaves no headroom for the signed residuals
    with pytest.raises(ArithmeticError, match="headroom"):
        read(_one_slot_table(1 << 62))


def test_modelspec_rejects_propagator_poles():
    for c in (1, "1", Fraction(-1, 2), "-2/4"):
        with pytest.raises(ValueError, match="pole of the propagator"):
            ModelSpec(kind="potts3", c=c, ng=2, ltarget=2)
    for c in ("abc", "1/0", None):
        with pytest.raises(ValueError, match="neither 'symbolic' nor a rational"):
            ModelSpec(c=c)
    # the coupling is parsed once, into a Fraction, whatever form it came in
    assert ModelSpec(c="2/8").c == Fraction(1, 4) and type(ModelSpec(c=3).c) is Fraction
    assert ModelSpec(c="2/8") == ModelSpec(c=Fraction(1, 4))


def test_gaussian_examples(small_table):
    assert str(small_table.p_coeff("00", 0)) == "1"
    assert str(small_table.p_coeff("01", 0)) == "c"
    assert str(small_table.p_coeff("0011", 0)) == "1+c^2"
    assert str(small_table.p_coeff("0000", 0)) == "2"


def test_constant_term_is_one(small_table):
    assert str(small_table.p_coeff("", 0)) == "1"
    for n in (1, 2):
        assert small_table.p_coeff("", n).is_zero()


def test_build_rhs_on_unit_series():
    one = NCSeries.unit(4, 2)
    rhs = build_rhs_potts(one)
    assert rhs.coefficient(Word.from_string("00"))[0] == Poly((1,))
    assert str(rhs.coefficient(Word.from_string("01"))[0]) == "c"
    assert rhs.coefficient(Word([]))[0] == Poly((1,))


def test_rhs_fixed_point_matches_ncseries_path(small_table):
    """One application of the NCSeries-level rhs reproduces the table to its exact truncation."""
    lmax, ng = 4, 2
    phi = small_table.to_ncseries(lmax + 1, ng)
    rhs = build_rhs_potts(phi)
    assert (rhs.lmax, rhs.ng) == (lmax, ng)
    assert rhs == small_table.to_ncseries(lmax, ng)
    assert len(rhs.terms) == sum(3**k for k in range(lmax + 1))  # every word of up to lmax letters


def test_rhs_reads_the_longest_words_of_phi(small_table):
    # only the triangle term reads Phi at phi.lmax letters: g Delta_0^2 bumps 00012 into x_j 012
    phi = small_table.to_ncseries(5, 2)
    bump = Word.from_string("00012")
    bumped = NCSeries({**phi.terms, bump: phi.coefficient(bump) + XLaurent.constant(1, 0, 2)}, 5, 2)
    rhs, changed = build_rhs_potts(phi), build_rhs_potts(bumped)
    diff = {str(w): changed.coefficient(w) - rhs.coefficient(w) for w in rhs.terms.keys() | changed.terms.keys()}
    g, gc = XLaurent(0, [(0, 1)], 0, 2), XLaurent(0, [(0, Poly((0, 1)))], 0, 2)
    assert {w: d for w, d in diff.items() if not d.is_zero()} == {"0012": g, "1012": gc, "2012": gc}


def test_to_ncseries_refuses_a_slot_outside_the_region(small_table):
    # (000000, g^2) has |w| + n = 8 > S = 7: the export is guarded like every other reader
    with pytest.raises(TruncationError, match=r"\(\|w\|=6, n=2\)"):
        small_table.to_ncseries(6, 2)


@pytest.mark.parametrize(
    "kind, c",
    [("potts3", "symbolic"), ("potts3", Fraction(1, 4)), ("potts3", Fraction(-2, 3)), ("pure-gravity", "symbolic")],
    ids=str,
)
def test_lazy_export_matches_the_dense_export(kind, c):
    spec = ModelSpec(kind=kind, c=c, ng=3, ltarget=4)
    dense = solve_series(spec)
    lazy = LazyTable(spec, max_len=dense.S)
    for lmax, ng in ((4, 3), (5, 2), (7, 0)):
        exported = lazy.to_ncseries(lmax, ng)
        assert exported.terms and exported == dense.to_ncseries(lmax, ng)


def test_the_export_stream_stores_no_alias_key():
    # solve reads each listed word once: a miss reads its representative's slot and stores no
    # key of its own (at ten letters the memo keeps 1,741 entries where an alias store kept 66,430)
    lazy = LazyTable(ModelSpec(ng=0, ltarget=8), max_len=8)
    assert len(list(lazy.listing(8, 0))) == 7381
    assert (lazy.rhs_evaluations, len(lazy._memo)) == (131, 287)
    # only the stream reads eight-letter words, so their slot holds representatives alone
    assert all(orbit_rep(bits, 8) == bits for bits in memo_slots(lazy)[8, 0])
    # and the stream keeps the region guard of every reader
    with pytest.raises(TruncationError, match=r"\(\|w\|=8, n=2\)"):
        LazyTable(ModelSpec(ng=2), max_len=8).to_ncseries(8, 2)


def test_c_zero_decouples_colors():
    """At c = 0 the colors are independent: mixed words lose their Gaussian
    part and factorise into products of single-color moments (they do not
    vanish wholesale: odd one-color moments are nonzero once triangles are
    weighted in, and the contraction oracle confirms the factorised value).
    """
    tab = solve_series(ModelSpec(kind="potts3", c=0, ng=2, ltarget=4))
    assert tab.p_coeff("01", 0).is_zero()  # a cross propagator would be needed
    assert tab.p_coeff("0011", 0) == Poly.constant(1)  # same-color pairings survive
    prod = tab.gseries("0") * tab.gseries("1")
    assert tab.gseries("01") == prod
    assert tab.p_coeff("0001", 2) == Poly.constant(4)  # = p(000,1) * p(1,1), oracle-pinned


def test_cyclic_symmetry(referee_table):
    # the referee table is solved word by word, so its symmetry is a result, not an assumption
    rng = random.Random(2)
    for _ in range(200):
        k = rng.randrange(1, 6)
        word = Word([rng.randrange(3) for _ in range(k)])
        n = rng.choice([m for m in range(4) if (k + m) % 2 == 0 and k + m <= referee_table.S])
        ref = referee_table.p_coeff(word, n)
        for rot in word.rotations():
            assert referee_table.p_coeff(rot, n) == ref


def test_s3_invariance(referee_table):
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    rng = random.Random(4)
    for _ in range(150):
        k = rng.randrange(6)
        word = Word([rng.randrange(3) for _ in range(k)])
        n = rng.choice([m for m in range(4) if (k + m) % 2 == 0 and k + m <= referee_table.S])
        ref = referee_table.p_coeff(word, n)
        for perm in perms:
            assert referee_table.p_coeff(word.relabel(perm), n) == ref


def test_parity_vanishing(small_table):
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randrange(6)
        word = Word([rng.randrange(3) for _ in range(k)])
        for n in range(small_table.ng + 1):
            if (k + n) % 2 == 1 and k + n <= small_table.S:
                assert small_table.p_coeff(word, n).is_zero()


def test_c_to_zero_limit_matches_pure_gravity(small_table):
    """The c^0 part of a single-letter coefficient counts all-equal-spin
    triangulations, which is exactly the one-matrix count."""
    pure = solve_series(ModelSpec(kind="pure-gravity", ng=3, ltarget=4))
    for k in range(5):
        for n in range(4):
            if (k + n) % 2 == 0 and k + n <= 7:
                sym = small_table.p_coeff(Word([0] * k), n)
                assert sym.coefficient(0) == pure.p_coeff(Word([0] * k), n).coefficient(0)


def test_lazy_matches_dense():
    # the unreduced solve runs the recursion on every word, so comparing every slot
    # checks the rotation, reversal and relabelling symmetry the lazy table relies on
    medium = solve_unreduced(ModelSpec(kind="potts3", c="symbolic", ng=3, ltarget=8))
    quarter = solve_unreduced(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=3, ltarget=6))
    for dense, nonzero_slots in ((medium, 98_413), (quarter, 10_933)):
        lazy = LazyTable(dense.spec, max_len=dense.S)
        nonzero = 0
        for (n, k), d in dense.layers.items():
            for word in all_words(k):
                want = d.get(word.bits, 0)
                assert lazy._raw(word.bits, k, n) == want, (str(word), n)
                nonzero += want != 0
        assert nonzero == nonzero_slots
        assert lazy.rhs_evaluations < nonzero // 20


@pytest.mark.parametrize("c", ["symbolic", Fraction(1, 4), Fraction(0), Fraction(-2, 3)])
def test_orbit_solve_matches_unreduced_solve(referee_table, c):
    spec = ModelSpec(kind="potts3", c=c, ng=6, ltarget=4)
    unreduced = referee_table if c == "symbolic" else solve_unreduced(spec)
    # every layer, key for key and value for value
    assert solve_series(spec).layers == unreduced.layers


def test_unreduced_residual_checks_every_slot(referee_table):
    """The referee: the fixed point at every word and the recast form at every
    word, on the table solved word by word."""
    report = _residual(referee_table, 10, _singletons(3, 10))
    assert report.ok, (report.fixed_point[:3], report.recast[:3], report.symmetry[:3])
    assert report == generating_residual(referee_table, 10)


def _corrupted(table, n, k, words, delta=1):
    """A copy of the table with ``delta`` added to the given words of layer (n, k)."""
    layers = {key: dict(d) for key, d in table.layers.items()}
    for w in words:
        layers[(n, k)][w] += delta
    return SolutionTable(table.spec, table.S, layers)


def test_residual_flags_a_corrupted_image_as_a_symmetry_break(small_table):
    # the top-grade layer: no other slot of the checked region reads it
    n, k = 0, 6
    rep, images = next((r, i) for r, i in word_orbits(k) if len(i) > 1 and r in small_table.layers[(n, k)])
    image = next(x for x in images if x != rep)
    report = generating_residual(_corrupted(small_table, n, k, [image]), grade=6)
    assert not report.ok
    assert not report.fixed_point  # the fixed point only reads representatives
    assert Word._raw(k, image) in {word for word, _, _ in report.symmetry}
    assert all(m == n for _, m, _ in report.symmetry)


def test_residual_flags_a_corrupted_representative_at_the_fixed_point(small_table):
    n, k = 1, 3
    rep, images = next((r, i) for r, i in word_orbits(k) if r in small_table.layers[(n, k)])
    report = generating_residual(_corrupted(small_table, n, k, [rep]))
    assert (Word._raw(k, rep), n) in [(word, m) for word, m, _ in report.fixed_point]
    assert report.symmetry
    # corrupted on its whole orbit, the table stays symmetric and only the fixed point sees it
    report = generating_residual(_corrupted(small_table, n, k, images))
    assert not report.symmetry
    assert (Word._raw(k, rep), n) in [(word, m) for word, m, _ in report.fixed_point]


def test_residual_value_decodes_borrowing_digits(small_table):
    # raw - rhs = 1 - 2**64 packs 1 - c: the c-digit borrows from the constant one
    n, k = 1, 3
    rep, images = next((r, i) for r, i in word_orbits(k) if r in small_table.layers[(n, k)])
    report = generating_residual(_corrupted(small_table, n, k, images, 1 - (1 << 64)))
    assert (Word._raw(k, rep), n, Poly((1, -1))) in report.fixed_point


def test_orbit_residual_matches_the_unreduced_residual_on_a_corrupted_orbit(small_table):
    # a whole orbit off by one keeps the table symmetric; the failures it causes
    # downstream are the unreduced referee's, read at one word per class
    n, k = 1, 3
    rep, images = next((r, i) for r, i in word_orbits(k) if r in small_table.layers[(n, k)])
    table = _corrupted(small_table, n, k, images)
    orbit = generating_residual(table)
    single = _residual(table, orbit.grade, _singletons(3, orbit.grade))
    assert not orbit.symmetry and orbit.fixed_point and orbit.recast
    # the fixed point at each orbit representative, the recast form at each <reversal, (12)> class
    reps = [f for f in single.fixed_point if orbit_rep(f[0].bits, f[0].n) == f[0].bits]
    least = [f for f in single.recast if reflection_least([f[0].bits], f[0].n)]
    assert sorted(orbit.fixed_point, key=str) == sorted(reps, key=str)
    assert sorted(orbit.recast, key=str) == sorted(least, key=str)
    # and every other word of a class fails with the value of its representative
    at_rep = {(orbit_rep(w.bits, w.n), m): v for w, m, v in reps}
    assert all(at_rep[orbit_rep(w.bits, w.n), m] == v for w, m, v in single.fixed_point)


def test_slot_readers_keep_the_region_guards(small_table):
    # the readers fetched once per (length, order) refuse what _raw refused, with the same text
    S, ng = small_table.S, small_table.ng
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=4)
    cases = [
        (small_table, 8, 0, f"coefficient (|w|=8, n=0) outside solved region |w|+n <= {S}, n <= {ng}"),
        (small_table, 3, 5, f"coefficient (|w|=3, n=5) outside solved region |w|+n <= {S}, n <= {ng}"),
        (small_table, 0, 4, f"coefficient (|w|=0, n=4) outside solved region |w|+n <= {S}, n <= {ng}"),
        (lazy, 6, 0, "coefficient (|w|=6, n=0) outside solved region |w|+n <= 4, n <= 2"),
        (lazy, 5, 1, "coefficient (|w|=5, n=1) outside solved region |w|+n <= 4, n <= 2"),
        (lazy, 0, 4, "coefficient (|w|=0, n=4) outside solved region |w|+n <= 4, n <= 2"),
    ]
    for table, k, n, text in cases:
        for read in (lambda: table._raw(0, k, n), lambda: table._readers(k, n)[k][n](0)):
            with pytest.raises(TruncationError) as err:
                read()
            assert str(err.value) == text
        # a slot that vanishes by parity reads zero even outside the region
        assert table._raw(0, k + 1, n) == 0
    # and the recast form over a whole region, which reads one and two letters further
    for table, kmax, n, text in (
        (lazy, 4, 2, "coefficient (|w|=4, n=2) outside solved region |w|+n <= 4, n <= 2"),
        (small_table, S, ng, f"coefficient (|w|=5, n=3) outside solved region |w|+n <= {S}, n <= {ng}"),
    ):
        with pytest.raises(TruncationError) as err:
            recast_residual_rect(table, kmax, n)
        assert str(err.value) == text


def test_generating_residual_on_an_odd_solved_region():
    # S = 7: the default grade reaches |w| + n = S, where the recast form would read
    # eight-letter words; it runs below S, and both forms still see the top stored slots
    table = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=4, ltarget=3))
    report = generating_residual(table)
    assert report.ok and report.grade == table.S == 7
    _, images = word_orbits(6)[0]  # 000000, 111111 and 222222
    report = generating_residual(_corrupted(table, 0, 6, images))
    assert not report.symmetry
    assert ("000000", 0) in [(str(word), n) for word, n, _ in report.fixed_point]
    assert ("00000", 0) in [(str(word), n) for word, n, _ in report.recast]


@pytest.mark.parametrize(
    "nx, ng, c",
    [(10, 2, "symbolic"), (8, 4, "symbolic"), (5, 1, "symbolic"), (3, 3, "symbolic"), (2, 3, "symbolic"),
     (1, 4, "symbolic"), (0, 0, "symbolic"), (5, 1, Fraction(1, 4)), (3, 3, Fraction(1, 4)), (4, 3, "symbolic")],
)
def test_check_loops_line_zero_region_reads_what_the_residual_reads(nx, ng, c):
    # check-loops line 0 solves ltarget min(nx, ng): the same report, grade included,
    # as the full ltarget nx region read at the grade min(nx + ng, 2 ng)
    small = generating_residual(solve_series(ModelSpec(c=c, ng=ng, ltarget=min(nx, ng))))
    full = generating_residual(solve_series(ModelSpec(c=c, ng=ng, ltarget=nx)), grade=min(nx + ng, 2 * ng))
    assert small == full


def test_lazy_table_solves_once_per_orbit():
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=12)
    assert lazy.rhs_evaluations == 0
    assert all(r.passed for r in check_sd(lazy, 2, 2))
    # one recursion per orbit and g-order; solving word by word would make these equal
    assert 0 < 4 * lazy.rhs_evaluations < len(lazy._memo)


def test_lazy_readers_are_built_once():
    # every reader of a held slot is the one the recursion reads through
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=6)
    for k in range(7):
        for n in range(min(2, 6 - k) + 1):
            if (k + n) % 2 == 0:
                assert lazy._reader(k, n) is lazy._slots[k][n]
    assert lazy._readers(6, 2)[4][2] is lazy._slots[4][2]


def test_both_tables_read_held_slots_through_one_grid(small_table):
    # the grid is built with the table, one row per length up to S, and _reader hands it out
    lazy = LazyTable(small_table.spec, max_len=small_table.S)
    for table in (small_table, lazy):
        assert len(table._slots) == table.S + 1
        for k in range(table.S + 1):
            for n in range(min(table.ng, table.S - k) + 1):
                if (k + n) % 2 == 0:
                    assert table._slots[k][n] is not None
                    assert table._reader(k, n) is table._slots[k][n]


def test_lazy_read_outside_the_region_refuses_at_the_guard():
    # (0000, g^4) has |w| + n = 8 > 6: the guard names that slot, and the memo does not grow
    # (a guard at |w| <= 6 let it through, wrote 104 memo entries and named (|w|=7, n=1))
    lazy = LazyTable(ModelSpec(c="symbolic", ng=4), max_len=6)
    lazy.p_coeff("0000", 2)  # a held slot fills part of the memo
    filled = len(lazy._memo)
    assert filled
    with pytest.raises(TruncationError) as err:
        lazy.p_coeff("0000", 4)
    assert str(err.value) == "coefficient (|w|=4, n=4) outside solved region |w|+n <= 6, n <= 4"
    assert len(lazy._memo) == filled


def test_one_letter_tables_refuse_words_outside_their_model():
    # the memo would relabel 12 onto its orbit representative 01 and solve a word the
    # one-matrix model does not have; every word-level reader refuses it as the oracle does
    spec = ModelSpec(kind="pure-gravity", ng=3, ltarget=4)
    for table in (solve_series(spec), LazyTable(spec, max_len=7)):
        for word, n in (("1", 1), ("12", 0), ("1111", 0)):
            text = f"letter 1 of word {word} outside the 1-letter model"
            for read in (
                lambda: table.p_coeff(word, n),
                lambda: table.value_word(Word.from_string(word), n),
                lambda: table.gseries(word),
            ):
                with pytest.raises(ValueError) as err:
                    read()
                assert str(err.value) == text
            with pytest.raises(ValueError) as err:
                planar_moment(word, n, nletters=1)
            assert str(err.value) == text
        # the recast form is an identity of the three-letter model only
        with pytest.raises(ValueError, match="3-letter model"):
            recast_residual_rect(table, 3, 3)
        assert not getattr(table, "_memo", None)  # refused before any read
        assert table.p_coeff("0000", 0) == Poly((2,)) and table.gseries("0").coefficient(0)[1] == Poly((1,))


def test_lazy_miss_canonicalises_once(monkeypatch):
    # a representative's slot reached through an alias is read directly, not
    # canonicalised again, so some misses cost no orbit_rep call of their own
    import pottsloop.recursion as recursion

    calls = []

    def counted(bits, k):
        calls.append(k)
        return orbit_rep(bits, k)

    monkeypatch.setattr(recursion, "orbit_rep", counted)
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=12)
    assert all(r.passed for r in check_sd(lazy, 2, 2))
    assert 0 < len(calls) < len(lazy._memo)


def _memo_digest(lazy: LazyTable) -> str:
    """sha256 of the memo: each held slot's (bits, value) entries in insertion order, slots sorted by (k, n)."""
    slots = {kn: list(d.items()) for kn, d in memo_slots(lazy).items() if d}
    return hashlib.sha256(repr(sorted(slots.items())).encode()).hexdigest()


_PINNED_MEMO = {
    "symbolic": (
        "f4b8fbf2eb2f3a61bf53638c57cfa82edd0a128aa008fc9651d3c2f1d333f76a",
        "b56dae785764be34d05875b45b7bffbfd19ad5f5f42cea46512df5f259845ed9",
    ),
    "3/7": (
        "358001f4c0280b0f3fdfc9f412d2305b5bb5a7a39263a90ca279f94aa7b3e3e5",
        "8ab0db8eed5261cd7e4676239d090729d5ae57440c112aa577a87dc2d886bc7d",
    ),
}


@pytest.fixture(scope="module", params=["symbolic", "3/7"], ids=("symbolic", "c3_7"))
def catalog_memo(request):
    """A lazy table after one catalog pass and then the recast form: (table, memo after the pass, recast failures)."""
    lazy = LazyTable(ModelSpec(c=request.param, ng=5), max_len=18)
    check_loops(lazy, 5, 5)
    first = (lazy.rhs_evaluations, len(lazy._memo), _memo_digest(lazy))
    return lazy, first, recast_residual_rect(lazy, 5, 5)


def test_catalog_pass_leaves_the_pinned_memo(catalog_memo):
    # the memo of one catalog pass, keys, values and insertion order per slot: the
    # entries the string canonicaliser first recorded, so canonicalisation moves no slot
    lazy, first, recast = catalog_memo
    digest, recast_digest = _PINNED_MEMO[str(lazy.spec.c)]
    assert first == (4025, 14554, digest)
    # then the recast form, as first recorded with a scan of every split
    # position: reading splits only at the letters 0 moves no read
    assert recast == []
    assert (lazy.rhs_evaluations, len(lazy._memo), _memo_digest(lazy)) == (4036, 16673, recast_digest)


def test_catalog_memo_aliases_read_their_representative(catalog_memo):
    # every key holds its representative's value, and the representatives are the solved slots
    lazy = catalog_memo[0]
    reps = 0
    for (k, n), slot in memo_slots(lazy).items():
        for bits, v in slot.items():
            rep = orbit_rep(bits, k)
            assert slot.get(rep) == v, (k, n, bits)
            reps += rep == bits
    assert reps == lazy.rhs_evaluations


@pytest.mark.parametrize("catalog_memo", ["symbolic"], indirect=True, ids=("symbolic",))
def test_catalog_memo_is_the_one_matrix_count_at_c_one(catalog_memo):
    # at c = 1 every propagator is 1: p_w^(n)(1) = 3^n pg(|w|, n), the packed value mod 2^64 - 1
    lazy = catalog_memo[0]
    branch = solve_pure_gravity(lazy.ng, lazy.S, check_variant=False).branch
    for (k, n), slot in memo_slots(lazy).items():
        pg = branch.coefficient(k)[n].coefficient(0)
        assert {v % ((1 << 64) - 1) for v in slot.values()} <= {3**n * pg}, (k, n)


def test_catalog_memo_holds_at_most_one_representative_per_orbit(catalog_memo):
    # the orbit census: a canonicaliser that split an orbit would store more representatives than orbits
    lazy = catalog_memo[0]
    for (k, n), slot in memo_slots(lazy).items():
        orbits = len(word_orbits(k)) if k <= 12 else burnside_orbits(k)
        assert sum(orbit_rep(bits, k) == bits for bits in slot) <= orbits, (k, n)


def test_each_slot_builds_its_split_plan_once(monkeypatch):
    # a catalog pass solves many orbits per slot and builds one plan per slot
    import pottsloop.recursion as recursion

    calls = []

    def counted(slots, k, n):
        calls.append((k, n))
        return _splits(slots, k, n)

    monkeypatch.setattr(recursion, "_splits", counted)
    lazy = LazyTable(ModelSpec(c="3/7", ng=3), max_len=catalog_edge(3, 3))
    assert all(r.passed for r in check_loops(lazy, 3, 3) + check_sd(lazy, 3, 3))
    assert sorted(calls) == sorted(set(calls))
    assert set(calls) == {(k, n) for (k, n), slot in memo_slots(lazy).items() if k and slot}
    assert len(calls) < lazy.rhs_evaluations


def test_the_residual_checks_the_dense_solve_with_its_own_split_code(monkeypatch):
    # the lazy solve and the fixed-point residual read split plans, the dense solve does not:
    # a plan that drops its last split position moves the lazy values and fails the dense table
    import pottsloop.solver as solver
    import pottsloop.recursion as recursion

    spec = ModelSpec(c="symbolic", ng=2, ltarget=4)
    dense = solve_series(spec)
    assert generating_residual(dense).ok
    for module in (recursion, solver):  # the lazy slot reads it in recursion, the residual in solver
        monkeypatch.setattr(module, "_splits", lambda slots, k, n: _splits(slots, k, n)[:-1])
    lazy = LazyTable(spec, max_len=dense.S)
    words = [w for k in range(spec.ltarget + 1) for w in all_words(k)]
    assert any(lazy.p_coeff(w, n) != dense.p_coeff(w, n) for w in words for n in range(spec.ng + 1))
    assert generating_residual(dense).fixed_point


def test_negative_orders_are_refused_by_every_reader():
    for table in (solve_series(ModelSpec(ng=2, ltarget=4)), LazyTable(ModelSpec(ng=2), max_len=6)):
        for read in (lambda: table.p_coeff("00", -2), lambda: table.value_word(Word.from_string("00"), -2)):
            with pytest.raises(ValueError, match=r"^triangle order n = -2 is negative$"):
                read()
        with pytest.raises(ValueError, match=r"^triangle order n = -1 is negative$"):
            table.gseries("00", -1)
        assert not getattr(table, "_memo", None)  # refused before any read
        assert table.p_coeff("00", 0) == Poly((1,)) and table.gseries("00", 0).coefficient(0)[0] == Poly((1,))
    with pytest.raises(ValueError, match=r"^triangle order n = -2 is negative$"):
        planar_moment("00", -2)


def test_recast_words_match_a_per_orbit_reference():
    for k in range(10):
        for orbits_k in (word_orbits(k), _singletons(3, k)[k]):
            want = []
            for _, images in orbits_k:
                want += [images[0]] if len(images) == 1 else reflection_least(list(images), k)
            assert _recast_words(orbits_k, k) == want


def test_lazy_memo_keys_do_not_collide():
    # g-orders n >= 16 used to spill into the length field of the memo key
    lazy = LazyTable(ModelSpec(kind="pure-gravity", ng=17, ltarget=1), max_len=18)
    dense = solve_series(ModelSpec(kind="pure-gravity", ng=17, ltarget=1))
    assert lazy.value_word(Word([0]), 1) == dense.value_word(Word([0]), 1)
    assert lazy.value_word(Word([0]), 17) == dense.value_word(Word([0]), 17)
    # lengths |w| >= 128 used to spill into the word bits: 0^130 against 10
    lazy = LazyTable(ModelSpec(kind="potts3", c="1/4", ng=0, ltarget=2), max_len=130)
    assert lazy.value_word(Word.from_string("10"), 0) == Fraction(1, 4)
    assert lazy.value_word(Word([0] * 130), 0) == math.comb(130, 65) // 66  # Catalan(65)


@pytest.mark.parametrize("c0", [Fraction(-6, 7), Fraction(0), Fraction(1, 4), Fraction(5, 3), Fraction(2)])
def test_numeric_tables_evaluate_the_symbolic_table(small_table, c0):
    spec = ModelSpec(kind="potts3", c=c0, ng=small_table.ng, ltarget=small_table.spec.ltarget)
    dense = solve_series(spec)
    lazy = LazyTable(spec, max_len=small_table.S)
    for k in range(small_table.S + 1):
        for n in range(min(small_table.ng, small_table.S - k) + 1):
            for word in all_words(k):
                want = small_table.p_coeff(word, n).evaluate(c0)
                for table in (dense, lazy):
                    got = table.value_word(word, n)
                    assert type(got) is Fraction and got == want, (str(word), n, got, want)
                    assert table.p_coeff(word, n) == Poly.constant(want)


def test_scaled_checks_detect_a_corrupted_raw_entry():
    lazy = LazyTable(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=2, ltarget=2), max_len=12)
    lazy.value_word(Word([]), 0)
    assert len(lazy._memo) == 1
    assert lazy.value_word(Word([0, 0]), 0) == 1
    slot = memo_slots(lazy)[2, 0]
    assert len(lazy._memo) == 2 and slot == {0: 4}  # p_00 = 1 stored as b**1 with b = 4
    slot[0] += 1
    bad = recast_residual_rect(lazy, 2, 2)
    assert bad and bad[0][:2] == (Word.from_string("0"), 0)
    assert not all(r.passed for r in check_loops(lazy, 2, 2))


def test_lazy_guards_report_bounds():
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=4)
    with pytest.raises(TruncationError):
        lazy.p_coeff(Word([0] * 6), 0)
    with pytest.raises(TruncationError):
        lazy.p_coeff(Word([0, 0]), 4)


def test_headroom_guard_refuses_before_solving(monkeypatch):
    import pottsloop.recursion as recursion

    one_letter = recursion._solve_dense

    def no_potts_solve(nlet, *args):
        assert nlet == 1, "a refused truncation reached the three-letter solve"
        return one_letter(nlet, *args)

    monkeypatch.setattr(recursion, "_solve_dense", no_potts_solve)
    # 4 * 3**n * pg(|w|, n) peaks at 71 bits over (S 30, ng 14)
    with pytest.raises(ValueError, match=r"\|w\| \+ n <= 30, n <= 14 .* 71-bit bound"):
        solve_series(ModelSpec(kind="potts3", c="symbolic", ng=14, ltarget=16))
    with pytest.raises(ValueError, match=r"^truncation \|w\| \+ n <= 30, n <= 14 .* 71-bit bound"):
        LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=14, ltarget=16), max_len=30)
    # a lazy table holds only |w| + n <= max_len, so its bound covers that region and no more:
    # (ng 10, max_len 22) fits with a 50-bit bound, max_len 32 still reaches 64 bits
    LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=10), max_len=22)
    with pytest.raises(ValueError, match=r"^truncation \|w\| \+ n <= 32, n <= 10 .* 64-bit bound"):
        LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=10), max_len=32)
    # numeric-c raw values are plain integers and need no digit room
    LazyTable(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=14, ltarget=16), max_len=30)


def test_size_guard_refuses_before_solving(monkeypatch):
    import pottsloop.recursion as recursion

    one_letter, solved = recursion._solve_dense, []

    def no_potts_solve(nlet, S, ng, *args):
        if nlet == 1:
            return one_letter(nlet, S, ng, *args)
        solved.append((S, ng))  # an accepted region, not solved here
        return {}

    monkeypatch.setattr(recursion, "_solve_dense", no_potts_solve)
    monkeypatch.setattr(recursion, "_orbit_partition", lambda nlet, S: None)  # 14 letters alone take seconds
    with pytest.raises(ValueError, match=r"\|w\| \+ n <= 16, n <= 8 refused: 72637649 slots, beyond the 2\^24"):
        solve_series(ModelSpec(ng=8, ltarget=8))
    # the largest regions measured to fit in memory pass the guard
    solve_series(ModelSpec(ng=7, ltarget=7))
    solve_series(ModelSpec(ng=8, ltarget=6))
    assert solved == [(14, 7), (14, 8)]


def test_catalog_edge_fits_the_headroom_at_nx_8_ng_12():
    # the edge the catalog checks read bounds the digits at 58 bits; nx + ng + 8 reached 63
    table = LazyTable(ModelSpec(ng=12), max_len=catalog_edge(8, 12))
    assert check_headroom(table.spec, table.S).bit_length() == 58


@pytest.mark.parametrize(
    "kind, kmax, S, ng",
    [
        ("potts3", 7, 7, 3),  # small_table
        ("potts3", 11, 11, 3),  # medium_table
        ("potts3", 12, 12, 8),  # master_table
        ("potts3", 24, 30, 6),  # lazy_table
        ("potts3", 10, 10, 6),  # benchmark dense solve
        ("potts3", 18, 23, 5),  # benchmark catalog tables
        ("pure-gravity", 20, 20, 10),  # pure-gravity closed form to order 10
        ("pure-gravity", 18, 35, 17),  # deep one-matrix lazy table
    ],
)
def test_shipped_truncations_fit_the_headroom(kind, kmax, S, ng):
    # the guard bounds the whole edge |w| + n <= S, which holds every word of up to kmax letters
    assert kmax <= S
    check_headroom(ModelSpec(kind=kind, c="symbolic", ng=ng), S)


def _largest_digit(table) -> int:
    slots = {v: (Word._raw(k, w), n) for (n, k), d in table.layers.items() for w, v in d.items()}
    return max(max(table.p_coeff(*slot).coeffs) for slot in slots.values())


def test_headroom_bound_covers_the_solved_digits(referee_table, master_table):
    for table in (referee_table, master_table):
        assert check_headroom(table.spec, table.S) >= _largest_digit(table)
    # a filled lazy table: its guard bounds |w| + n <= S, which holds every nonzero value it reads
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=4), max_len=14)
    for k in range(lazy.S + 1):
        for n in range(min(lazy.ng, lazy.S - k) + 1):
            lazy.p_coeff(Word([0] * k), n)
    held = [(k, n, v) for (k, n), slot in memo_slots(lazy).items() for v in slot.values() if v]
    assert all(k + n <= lazy.S for k, n, _ in held)
    largest = max(max(lazy._digits(v)) for _, _, v in held)
    assert check_headroom(lazy.spec, lazy.S) >= largest
    # the benchmark's dense region, whose trace reports solver.max_digit_bits 20
    assert _largest_digit(referee_table).bit_length() == 20
    assert check_headroom(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=6), 10) is None


def test_region_guard_reports_bounds(small_table):
    beyond = small_table.S + (2 if small_table.S % 2 == 0 else 3)  # parity-even slot
    with pytest.raises(TruncationError):
        small_table.p_coeff("0" * beyond, 0)


def test_determinism():
    a = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=3))
    b = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=3))
    assert list(a.listing(3, 2)) == list(b.listing(3, 2))


def test_generating_residual_zero_on_solved(small_table):
    rep = generating_residual(small_table)
    assert rep.ok
    assert not rep.fixed_point and not rep.recast


def test_generating_residual_scratch_stays_below_one_layer():
    # the residual reads each layer in slices: its scratch is 0.25 MB, where a list of
    # the keys and one of the values of the 59,049-word (n = 0, |w| = 10) layer take
    # 0.95 MB, and one flattened list of the 19,683 nine-letter recast images 0.16 MB
    table = solve_series(ModelSpec(ng=6, ltarget=4))  # also caches the orbits it reads
    tracemalloc.start()
    try:
        rep = generating_residual(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.grade == 10
    assert peak < 320_000


def test_generating_residual_detects_unsolved():
    spec = ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2)
    table = solve_series(spec)
    # corrupt one slot: the residual must flag it
    broken = SolutionTable(spec, table.S, {k: dict(v) for k, v in table.layers.items()})
    layer = broken.layers[(0, 2)]
    key = next(iter(layer))
    layer[key] += 1
    rep = generating_residual(broken)
    assert not rep.ok


def test_pure_gravity_solution_and_branches():
    pg = solve_pure_gravity(6, 8)
    tab = pg.table
    assert tab.p_coeff("00", 0) == Poly((1,))  # single planar pairing
    assert tab.p_coeff("0000", 0) == Poly((2,))  # Catalan C2
    assert str(tab.p_coeff("", 0)) == "1"
    for n in (1, 2, 3):
        assert tab.p_coeff("", n).is_zero()  # only one trivial triangulation
    assert (pg.branch - pg.phi).is_zero()
    assert not (pg.branch_other - pg.phi).is_zero()


def test_pure_gravity_solves_every_small_truncation():
    # g p1 reads p1 only below g^ng: at lx = 0 and odd ng the slot (|w| = 1, n = ng) lies outside the table
    for ng in range(7):
        for lx in range(4):
            pg = solve_pure_gravity(ng, lx)
            assert (pg.branch - pg.phi).is_zero(), (ng, lx)
            assert pg.phi.coefficient(0)[0] == Poly((1,))


def test_pure_gravity_branches_satisfy_vieta():
    # x^2 Phi^2 - b Phi + k = 0 with b = 1 - g/x and k = 1 - g/x - g p1
    ng = lx = 8
    pg = solve_pure_gravity(ng, lx, check_variant=False)
    g = XLaurent(0, [(0, 1)], lx, ng)
    b = XLaurent.x_power(0, lx, ng) - g * XLaurent.x_power(-1, lx, ng)
    k = b - g * pg.table.gseries("0", ng)
    r1, r2 = pg.branch, pg.branch_other
    assert r2.low == -3  # the rejected branch starts -g/x^3 + 1/x^2
    assert r1 + r2 == shift_x(b, -2)
    # x^2 r2 and k have no negative grade, so the product is exact up to grade lx
    assert grade_mask(r1 * shift_x(r2, 2) - k, lx).is_zero()
    assert not grade_mask(r1 * shift_x(r1, 2) - k, lx).is_zero()


def test_pure_gravity_variant_refuted_by_boundary_condition():
    pg = solve_pure_gravity(4, 6)
    # the variant with the extra 1/x pollutes the constant term at order g
    assert pg.variant_first_mismatch is not None
    k, n, variant_value, series_value = pg.variant_first_mismatch
    assert (k, n) == (0, 1)
    assert variant_value != series_value
