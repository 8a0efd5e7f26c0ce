"""Graded fixed-point solver: examples, symmetries, residuals, pure gravity."""

import math
import random
from fractions import Fraction

import pytest

from conftest import shift_x, solve_unreduced
from pottsloop.freealg import NCSeries, Word, all_words, orbit_rep, reflection_least, word_orbits
from pottsloop.loopcat import Amp, _amp_rows, check_loops, check_sd
from pottsloop.ring import Poly, XLaurent, xlaurent_grade_mask
from pottsloop.solver import (
    LazyTable,
    ModelSpec,
    SolutionTable,
    TruncationError,
    build_rhs_potts,
    check_headroom,
    generating_residual,
    recast_residual_rect,
    solve_pure_gravity,
    solve_series,
)
from pottsloop.solver import _recast_words, _residual, _singletons


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
    with pytest.raises(ValueError):
        ModelSpec(kind="potts3", c=1, ng=2, ltarget=2)
    with pytest.raises(ValueError):
        ModelSpec(kind="potts3", c=Fraction(-1, 2), ng=2, ltarget=2)


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
    """One application of the NCSeries-level rhs reproduces the table."""
    lmax, ng = 4, 2
    phi = small_table.to_ncseries(lmax + 1, ng)
    rhs = build_rhs_potts(phi)
    target = small_table.to_ncseries(lmax, ng)
    for word in target.words():
        assert rhs.coefficient(word) == target.coefficient(word)


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
        (lazy, 6, 0, "coefficient (|w|=6, n=0) beyond lazy-table guards (max_len=4, ng=2)"),
        (lazy, 5, 1, "coefficient (|w|=5, n=1) beyond lazy-table guards (max_len=4, ng=2)"),
        (lazy, 0, 4, "coefficient (|w|=0, n=4) beyond lazy-table guards (max_len=4, ng=2)"),
    ]
    for table, k, n, text in cases:
        for read in (lambda: table._raw(0, k, n), lambda: table._readers(k, n)[k][n](0)):
            with pytest.raises(TruncationError) as err:
                read()
            assert str(err.value) == text
        # a slot that vanishes by parity reads zero even outside the region
        assert table._raw(0, k + 1, n) == 0
    # the readers of the lazy recursion refuse one letter past max_len too
    with pytest.raises(TruncationError) as err:
        lazy._slots[5][1](0)
    assert str(err.value) == cases[4][3]
    # and the recast form over a whole region, which reads one and two letters further
    for table, kmax, n, text in (
        (lazy, 4, 2, "coefficient (|w|=5, n=1) beyond lazy-table guards (max_len=4, ng=2)"),
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


def test_lazy_table_solves_once_per_orbit():
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=12)
    assert lazy.rhs_evaluations == 0
    assert all(r.passed for r in check_sd(lazy, 2, 2))
    # one recursion per orbit and g-order; solving word by word would make these equal
    assert 0 < 4 * lazy.rhs_evaluations < len(lazy._memo)


def test_lazy_miss_canonicalises_once(monkeypatch):
    # a representative's slot reached through an alias is read directly, not
    # canonicalised again, so some misses cost no orbit_rep call of their own
    import pottsloop.solver as solver

    calls = []

    def counted(bits, k):
        calls.append(k)
        return orbit_rep(bits, k)

    monkeypatch.setattr(solver, "orbit_rep", counted)
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=2), max_len=12)
    assert all(r.passed for r in check_sd(lazy, 2, 2))
    assert 0 < len(calls) < len(lazy._memo)


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
    before = set(lazy._memo)
    assert lazy.value_word(Word([0, 0]), 0) == 1
    (key,) = set(lazy._memo) - before
    assert lazy._memo[key] == 4  # p_00 = 1 stored as b**1 with b = 4
    lazy._memo[key] += 1
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
    import pottsloop.solver as solver

    one_letter = solver._solve_dense

    def no_potts_solve(nlet, *args):
        assert nlet == 1, "a refused truncation reached the three-letter solve"
        return one_letter(nlet, *args)

    monkeypatch.setattr(solver, "_solve_dense", no_potts_solve)
    # 4 * 3**n * pg(|w|, n) peaks at 71 bits over (S 30, ng 14)
    with pytest.raises(ValueError, match=r"\|w\| \+ n <= 30, n <= 14 .* 71-bit bound"):
        solve_series(ModelSpec(kind="potts3", c="symbolic", ng=14, ltarget=16))
    with pytest.raises(ValueError, match=r"\|w\| <= 30, \|w\| \+ n <= 30, n <= 14 "):
        LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=14, ltarget=16), max_len=30)
    # a lazy table holds only |w| + n <= max_len, so its bound covers that region and no more:
    # (ng 10, max_len 22) fits with a 50-bit bound, max_len 32 still reaches 64 bits
    LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=10), max_len=22)
    with pytest.raises(ValueError, match=r"\|w\| <= 32, \|w\| \+ n <= 32, n <= 10 .* 64-bit bound"):
        LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=10), max_len=32)
    # numeric-c raw values are plain integers and need no digit room
    LazyTable(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=14, ltarget=16), max_len=30)


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
    check_headroom(ModelSpec(kind=kind, c="symbolic", ng=ng), kmax, S)


def _largest_digit(table) -> int:
    slots = {v: (Word._raw(k, w), n) for (n, k), d in table.layers.items() for w, v in d.items()}
    return max(max(table.p_coeff(*slot).coeffs) for slot in slots.values())


def test_headroom_bound_covers_the_solved_digits(referee_table, master_table):
    for table in (referee_table, master_table):
        assert check_headroom(table.spec, table.S, table.S) >= _largest_digit(table)
    # a filled lazy table: its guard bounds |w| + n <= max_len, which holds every nonzero value it reads
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=4), max_len=14)
    for k in range(lazy.max_len + 1):
        for n in range(min(lazy.ng, lazy.max_len - k) + 1):
            lazy.p_coeff(Word([0] * k), n)
    kmask, nmask = (1 << lazy._kbits) - 1, (1 << lazy._nbits) - 1
    held = [(key >> lazy._nbits & kmask, key & nmask, v) for key, v in lazy._memo.items() if v]
    assert all(k + n <= lazy.max_len for k, n, _ in held)
    largest = max(max(lazy._digits(v, 0, 0)) for _, _, v in held)
    assert check_headroom(lazy.spec, lazy.max_len, lazy.max_len) >= largest
    # the benchmark's dense region, whose trace reports solver.max_digit_bits 20
    assert _largest_digit(referee_table).bit_length() == 20
    assert check_headroom(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=6), 10, 10) is None


def test_region_guard_reports_bounds(small_table):
    beyond = small_table.S + (2 if small_table.S % 2 == 0 else 3)  # parity-even slot
    with pytest.raises(TruncationError):
        small_table.p_coeff("0" * beyond, 0)


def test_determinism():
    a = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=3))
    b = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=3))
    assert a.to_json() == b.to_json()


def test_generating_residual_zero_on_solved(small_table):
    rep = generating_residual(small_table)
    assert rep.ok
    assert not rep.fixed_point and not rep.recast


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
    assert xlaurent_grade_mask(r1 * shift_x(r2, 2) - k, lx).is_zero()
    assert not xlaurent_grade_mask(r1 * shift_x(r1, 2) - k, lx).is_zero()


def test_pure_gravity_variant_refuted_by_boundary_condition():
    pg = solve_pure_gravity(4, 6)
    # the variant with the extra 1/x pollutes the constant term at order g
    assert pg.variant_first_mismatch is not None
    k, n, variant_value, series_value = pg.variant_first_mismatch
    assert (k, n) == (0, 1)
    assert variant_value != series_value
