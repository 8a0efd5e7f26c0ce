"""Loop equation catalog and the reparameterisation generator."""

import random
from fractions import Fraction

import pytest

from conftest import assert_tight_edge, laurent, memo_slots, shift_x
from pottsloop.freealg import EMPTY_WORD, Word, orbit_rep
from pottsloop.loopcat import (
    CATALOG,
    Amp,
    SD_DESCRIPTORS,
    _amp_rows,
    _loop_rows,
    _sd_terms,
    catalog_edge,
    check_loops,
    check_sd,
)
from pottsloop.ring import Poly, XLaurent
from pottsloop.solver import LazyTable, ModelSpec, TruncationError, _TableBase, solve_series


def test_catalog_shape():
    assert len(CATALOG) == 23
    assert [eq.index for eq in CATALOG] == list(range(1, 24))
    assert len(SD_DESCRIPTORS) == 23
    emended = [eq.index for eq in CATALOG if eq.emended is not None]
    assert emended == [20, 21]


def test_catalog_edge_covers_the_longest_word_read():
    # an amplitude reads label a^(nx + delta) post, a scalar moment its own word
    terms = [t for eq in CATALOG for v in ("emended", "printed") for t in eq.effective_terms(v)]
    terms += [t for rep in SD_DESCRIPTORS for t in _sd_terms(rep)]
    amp_words = [len(a.label) + a.delta + len(a.post) for t in terms for a in t.amps]
    moment_words = [len(t.p_label or "") for t in terms]
    assert catalog_edge(0, 0) == max(amp_words + moment_words) == 5


@pytest.mark.parametrize("nx, ng", [(0, 0), (1, 0), (2, 3), (3, 2), (8, 2), (2, 8)], ids=str)
def test_catalog_checks_read_to_their_edge(nx, ng):
    assert_tight_edge(
        ng,
        catalog_edge(nx, ng),
        lambda table: check_loops(table, nx, ng),
        lambda table: check_loops(table, nx, ng, variant="printed"),
        lambda table: check_sd(table, nx, ng),
    )


def test_extract_amplitude_examples(small_table):
    a = laurent(_amp_rows(small_table, Amp("1"), 3, 3), 3, 3)
    assert a.coefficient(0) == small_table.gseries("1", 3)

    # symmetrised: average of the label and its reverse
    s = laurent(_amp_rows(small_table, Amp("122", sym=True), 2, 2), 2, 2)
    direct = laurent(_amp_rows(small_table, Amp("122"), 2, 2), 2, 2)
    reverse = laurent(_amp_rows(small_table, Amp("221"), 2, 2), 2, 2)
    assert s * 2 == direct + reverse

    lead = laurent(_amp_rows(small_table, Amp("12"), 2, 2), 2, 2).coefficient(0)
    assert str(lead[0]) == "c"


def test_extract_amplitude_depth_errors(small_table):
    with pytest.raises(TruncationError):
        _amp_rows(small_table, Amp("12222"), small_table.S, small_table.ng)


def test_all_loop_residuals_vanish_shallow(medium_table):
    results = check_loops(medium_table, nx=2, ng=3)
    assert all(r.passed for r in results)


def test_printed_entries_20_21_fail_with_exact_witness(medium_table):
    """The verbatim transcription of entries 20 and 21 is inconsistent; the
    failure is pinned to its exact leading coefficient so any change in the
    solver would be noticed here too."""
    for idx in (20, 21):
        res = laurent(_loop_rows(CATALOG[idx - 1].effective_terms("printed"), medium_table, 2, 3), 2, 3)
        fz = res.first_nonzero()
        assert fz is not None
        e, n, value = fz
        assert (e, n) == (1, 1)
        assert value == "-2*c^2-4*c^3+8*c^4-2*c^5"


def test_loop_residuals_numeric_spot_value():
    lazy = LazyTable(ModelSpec(kind="potts3", c="1/4", ng=3, ltarget=8), max_len=16)
    results = check_loops(lazy, nx=2, ng=3)
    assert all(r.passed for r in results)


def test_c_zero_reduces_first_equation_to_pure_gravity():
    tab = solve_series(ModelSpec(kind="potts3", c=0, ng=3, ltarget=8))
    res = laurent(_loop_rows(CATALOG[0].effective_terms(), tab, 3, 3), 3, 3)
    assert res.is_zero()


def test_resolvent_series_is_cyclic_in_blocks(small_table):
    # p(pre a^j post) depends only on the cyclic word, so rotating the
    # explicit part around the block leaves the series unchanged
    a = laurent(_amp_rows(small_table, Amp("1", post="1"), 3, 2), 3, 2)
    b = laurent(_amp_rows(small_table, Amp("", post="11"), 3, 2), 3, 2)
    assert a == b


def test_every_generated_term_holds_an_amplitude():
    # each term holds a resolvent x * Amp, so the final /x is a shift of
    # its x power and no x^0 remainder is left to drop
    for rep in SD_DESCRIPTORS:
        for term in _sd_terms(rep):
            assert term.amps and term.x_power >= 0, (rep.index, term)


def test_sd_residuals_vanish_and_match_catalog(medium_table):
    catalog = check_loops(medium_table, 2, 3)
    for rep in SD_DESCRIPTORS:
        rows = _loop_rows(_sd_terms(rep), medium_table, 2, 3)
        assert laurent(rows, 2, 3).is_zero(), f"descriptor {rep.index}"
        assert catalog[rep.index - 1].passed, f"descriptor {rep.index}"


def test_check_sd_reports_a_broken_catalog_pairing(medium_table, monkeypatch):
    """An altered catalog term fails its own pairing and no other."""
    from pottsloop import loopcat

    eq = CATALOG[9]  # entry 10: phi(1) - g D phi(11) - c D0 phi(resolvent) = 0
    altered = eq.replace(terms=(eq.terms[0].replace(coeff=(2,)),) + eq.terms[1:])
    monkeypatch.setattr(loopcat, "CATALOG", CATALOG[:9] + (altered,) + CATALOG[10:])
    results = check_sd(medium_table, 2, 2)
    assert [r.index for r in results if not r.passed] == [10]
    assert results[9].label.endswith("(does not reproduce its catalog pairing)")
    assert results[9].first_nonzero is None  # the generated residual itself vanishes


def test_sd_gaussian_limit():
    # at c = 0 and low order every descriptor reduces to single-matrix
    # (Catalan) Schwinger-Dyson identities
    tab = solve_series(ModelSpec(kind="potts3", c=0, ng=2, ltarget=7))
    for rep in SD_DESCRIPTORS:
        assert laurent(_loop_rows(_sd_terms(rep), tab, 2, 2), 2, 2).is_zero()


def test_check_drivers_report_passes(medium_table):
    loops = check_loops(medium_table, 2, 3)
    sd = check_sd(medium_table, 2, 3)
    assert all(r.passed for r in loops)
    assert all(r.passed for r in sd)
    assert "PASS" in loops[0].line()


def _read_keys(terms, nx):
    """The distinct ``_amp_rows`` reads of a term list: each amplitude to x^nx, each scalar moment to x^0."""
    return {(a, nx) for t in terms for a in t.amps} | {(Amp(t.p_label), 0) for t in terms if t.p_label is not None}


@pytest.mark.parametrize("variant", ["emended", "printed"])
def test_check_loops_reads_each_amplitude_once(medium_table, monkeypatch, variant):
    # one cache serves every entry of a check_loops call: one read per distinct amplitude
    # to x^2 or scalar moment (its label's amplitude to x^0), each row dropped at its last read
    from pottsloop import loopcat

    reads, caches = [], []

    def counted(table, amp, nx, ng):
        reads.append((amp, nx))
        return _amp_rows(table, amp, nx, ng)

    def spied(terms, table, nx, ng, cache=None, uses=None):
        caches.append(cache)
        return _loop_rows(terms, table, nx, ng, cache, uses)

    monkeypatch.setattr(loopcat, "_amp_rows", counted)
    monkeypatch.setattr(loopcat, "_loop_rows", spied)
    terms = [t for eq in CATALOG for t in eq.effective_terms(variant)]
    keys = _read_keys(terms, 2)
    results = check_loops(medium_table, 2, 3, variant=variant)
    assert len(reads) == len(keys) < sum(len(t.amps) + (t.p_label is not None) for t in terms)
    assert set(reads) == keys
    assert len(caches) == len(CATALOG) and all(c is caches[0] for c in caches) and caches[0] == {}
    assert [r.passed for r in results] == [variant == "emended" or eq.emended is None for eq in CATALOG]


def test_check_sd_reads_the_catalog_once(medium_table, monkeypatch):
    # each identity reads its own distinct amplitudes; the pairing reads the catalog's
    # through one check_loops call, once per distinct amplitude
    from pottsloop import loopcat

    reads = []

    def counted(table, amp, nx, ng):
        reads.append((amp, nx))
        return _amp_rows(table, amp, nx, ng)

    monkeypatch.setattr(loopcat, "_amp_rows", counted)
    results = check_sd(medium_table, 2, 3)
    catalog = _read_keys([t for eq in CATALOG for t in eq.effective_terms()], 2)
    assert len(reads) == sum(len(_read_keys(_sd_terms(rep), 2)) for rep in SD_DESCRIPTORS) + len(catalog) == 284
    assert all(r.passed for r in results)


def test_check_sd_at_numeric_c():
    lazy = LazyTable(ModelSpec(kind="potts3", c="1/4", ng=4, ltarget=4), max_len=16)
    results = check_sd(lazy, 4, 4)
    assert len(results) == 23
    assert all(r.passed and r.bad_slots == 0 for r in results)


def test_bad_slots_count_the_nonzero_residual_slots(medium_table):
    for variant in ("emended", "printed"):
        for r in check_loops(medium_table, 2, 3, variant=variant):
            if variant == "printed" and r.index in (20, 21):
                assert not r.passed and r.bad_slots >= 1
            else:
                assert r.passed and r.bad_slots == 0
    assert all(r.bad_slots == 0 for r in check_sd(medium_table, 2, 3))


# ---------------------------------------------------------------------------
# referee on a generic table: seeded values where no residual vanishes
# ---------------------------------------------------------------------------


class GenericTable(_TableBase):
    """Seeded nonzero raw values in every parity-allowed slot, one per orbit
    (rotation, reversal, relabelling) and g-order; not a solution.  Symbolic
    raw values pack three c-digits below 2**16."""

    def __init__(self, spec):
        super().__init__(spec, 24)  # well past catalog_edge(3, 3) = 11, the edge the checks read
        self._values = {}

    def _slot(self, k, n):
        def read(bits):
            key = (orbit_rep(bits, k), k, n)
            if key not in self._values:
                rng = random.Random(f"generic:{key}")
                if self.symbolic:
                    self._values[key] = sum(rng.randrange(1, 1 << 16) << (64 * i) for i in range(3))
                else:
                    self._values[key] = rng.randrange(1, 1 << 16)
            return self._values[key]

        return read


def _ref_amp(t, amp, nx, ng):
    word = Word.from_string(amp.label)
    labels = [word] if not amp.sym or word.reverse() == word else [word, word.reverse()]
    total = XLaurent.zero(nx, ng)
    for k in range(nx + 1):
        acc = XLaurent.zero(0, ng)
        for w in labels:
            acc = acc + t.gseries(w + Word([0] * (k + amp.delta)), ng)
        total = total + XLaurent.x_power(k, nx, ng) * acc * Fraction(1, len(labels))
    return total


def _ref_loop(eq, t, nx, ng, variant):
    total = XLaurent.zero(nx, ng)
    for term in eq.effective_terms(variant):
        s = _ref_amp(t, term.amps[0], nx, ng)
        for amp in term.amps[1:]:
            s = s * _ref_amp(t, amp, nx, ng)
        if term.p_label is not None:
            s = s * t.gseries(term.p_label, ng)
        coeff = XLaurent.constant(t.spec.const(Poly(term.coeff)), 0, ng).shift_g(term.g_power)
        total = total + shift_x(s * coeff, term.x_power)
    return total


def _ref_resolvent(t, pre, a, post, nx, ng):
    return sum((XLaurent.x_power(1 + j, nx, ng) * t.gseries(pre + Word([a] * j) + post, ng) for j in range(nx)),
               XLaurent.zero(nx, ng))


def _ref_sd(rep, t, nx, ng):
    nxi = nx + 1
    c, d = (XLaurent.constant(t.spec.const(p), 0, ng) for p in (Poly((0, 1)), Poly((1, 1, -2))))
    num = XLaurent.zero(nxi, ng)

    def res(pre, a, post):
        return _ref_resolvent(t, pre, a, post, nxi, ng)

    for A, a, B in rep.pieces:
        pre, post = Word.from_string(A), Word.from_string(B)
        if a == 0:
            num = num - res(pre, 0, EMPTY_WORD) * res(EMPTY_WORD, 0, post) * d
        for i in range(len(pre)):
            if pre[i] == 0:
                num = num - res(pre[i + 1 :], a, post) * t.gseries(pre[:i], ng) * d
        for i in range(len(post)):
            if post[i] == 0:
                num = num - res(pre, a, post[:i]) * t.gseries(post[i + 1 :], ng) * d
        t0, t1, t2, t00 = (res(pre, a, post + Word(m)) for m in ((0,), (1,), (2,), (0, 0)))
        num = num + t0 * (c + 1) - (t1 + t2) * c - t00 * d.shift_g(1)
    assert num.coefficient(0).is_zero()
    return XLaurent(num.low - 1, num.coeffs, nx, ng) if not num.is_zero() else XLaurent.zero(nx, ng)


def _slots(series):
    return [(e, n) for e, row in series.items() for n, v in enumerate(row) if not v.is_zero()]


@pytest.mark.parametrize("c", ["symbolic", Fraction(-2, 3), Fraction(3, 7)])
def test_rows_match_series_arithmetic_on_a_generic_table(c):
    """On a solved table every residual vanishes, so a wrong power of b or a
    lost 1/2 could still pass there; on a generic table none vanishes, and the
    integer-row evaluation must equal plain XLaurent arithmetic on the
    table's ``p_coeff`` values slot for slot."""
    nx = ng = 3
    t = GenericTable(ModelSpec(kind="potts3", c=c, ng=ng, ltarget=4))
    for variant in ("emended", "printed"):
        results = check_loops(t, nx, ng, variant=variant)
        for eq, r in zip(CATALOG, results):
            ref = _ref_loop(eq, t, nx, ng, variant)
            assert not ref.is_zero()
            assert laurent(_loop_rows(eq.effective_terms(variant), t, nx, ng), nx, ng) == ref, (variant, eq.index)
            assert r.first_nonzero == ref.first_nonzero() and r.bad_slots == len(_slots(ref))
    paired = []
    for rep, r in zip(SD_DESCRIPTORS, check_sd(t, nx, ng)):
        ref = _ref_sd(rep, t, nx, ng)
        assert not ref.is_zero()
        rows = _loop_rows(_sd_terms(rep), t, nx, ng)
        assert laurent(rows, nx, ng) == ref, rep.index
        assert r.first_nonzero == ref.first_nonzero() and r.bad_slots == len(_slots(ref))
        entry = _ref_loop(CATALOG[rep.index - 1], t, nx, ng, "emended")
        if (ref - entry * len(rep.pieces)).is_zero():
            paired.append(rep.index)
    # the entries that pair with their generated identity as formal sums, up to symmetry
    assert paired == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 16, 17]
    for label, delta, sym in (("1", 0, False), ("12", 1, True), ("1022", 2, True), ("121", 0, True)):
        amp = Amp(label, delta, sym)
        assert laurent(_amp_rows(t, amp, nx, ng), nx, ng) == _ref_amp(t, amp, nx, ng)
    ref = _ref_resolvent(t, Word.from_string("1"), 2, Word.from_string("01"), nx, ng)
    assert shift_x(laurent(_amp_rows(t, Amp("1", letter=2, post="01"), nx, ng), nx, ng), 1) == ref


# ---------------------------------------------------------------------------
# the packed evaluator: widths, aliasing, corrupted slots
# ---------------------------------------------------------------------------


def test_a_wider_packing_gives_the_same_results(medium_table, monkeypatch):
    """65 or 130 sign bits per digit push every symbolic evaluation to 128 or 192 bits: same results."""
    from pottsloop import ring

    tables = (medium_table, GenericTable(ModelSpec(ng=3)))
    runs = {}
    for spare in (ring._SIGN_BITS, 65, 130):
        monkeypatch.setattr(ring, "_SIGN_BITS", spare)
        runs[spare] = [
            (check_loops(t, 2, 3), check_loops(t, 2, 3, variant="printed"), check_sd(t, 2, 3)) for t in tables
        ]
        widths = {_loop_rows(eq.effective_terms(), t, 2, 3).width for eq in CATALOG for t in tables}
        assert min(widths) >= 64 + 64 * (spare > 1) + 64 * (spare > 65), (spare, widths)
    assert runs[1] == runs[65] == runs[130]
    assert not all(r.passed for r in runs[1][1][0])  # the generic table fails every entry


def test_a_residual_digit_past_the_sign_bit_is_evaluated_wide(monkeypatch):
    """(a x)^2 - c x^2 with a = 2^32: the true residual 2^64 - c is zero at c = 2^64,
    so a 64-bit packing would alias it to 0."""
    from pottsloop import ring
    from pottsloop.loopcat import _nonzero_slots

    a = ring.PackedRows([[0], [1 << 32]], 1, 64, 1 << 32, 1 << 32)
    one = ring.PackedRows([[0], [1]], 1, 64, 1, 1)

    def residual():
        square = ring.packed_mul(a, a, 2, 0)
        return square, ring.packed_sum([(Poly((1,)), 0, 0, square), (Poly((0, -1)), 0, 1, one)], 2, 0)

    square, res = residual()
    assert (square.peak, res.peak) == (1 << 64, (1 << 64) + 1) and square.width == res.width == 128
    assert _nonzero_slots(res) == ((2, 0, "18446744073709551616-c"), 1)
    monkeypatch.setattr(ring, "packed_width", lambda bound: 64)  # what the bound prevents
    assert _nonzero_slots(residual()[1]) == (None, 0)


def test_a_corrupted_memo_slot_reads_as_in_series_arithmetic():
    """One memo value of a solved symbolic lazy table gains c^2: the residuals that read it
    fail exactly as plain XLaurent arithmetic on the same (corrupted) table says."""
    nx = ng = 3
    lazy = LazyTable(ModelSpec(ng=ng), max_len=catalog_edge(nx, ng))
    assert all(r.passed for r in check_loops(lazy, nx, ng) + check_sd(lazy, nx, ng))
    word, n = Word.from_string("1200"), 2
    memo_slots(lazy)[word.n, n][word.bits] += 1 << 128
    failed = []
    for eq, r in zip(CATALOG, check_loops(lazy, nx, ng)):
        ref = _ref_loop(eq, lazy, nx, ng, "emended")
        assert (r.first_nonzero, r.bad_slots) == (ref.first_nonzero(), len(_slots(ref))), eq.index
        failed += [eq.index] * (not r.passed)
    for rep, r in zip(SD_DESCRIPTORS, check_sd(lazy, nx, ng)):
        ref = _ref_sd(rep, lazy, nx, ng)
        assert (r.first_nonzero, r.bad_slots) == (ref.first_nonzero(), len(_slots(ref))), rep.index
        failed += [-rep.index] * (not r.passed)
    assert failed


def test_the_wide_path_at_a_truncation_past_the_sign_bit(monkeypatch):
    """At (12, 5) the bound of some residuals reaches 2^63: they are packed at 128 bits,
    and every verdict and witness matches a packing at 192 bits or more."""
    from pottsloop import ring

    nx, ng = 12, 5
    lazy = LazyTable(ModelSpec(ng=ng), max_len=catalog_edge(nx, ng))
    peaks = [_loop_rows(_sd_terms(rep), lazy, nx, ng).peak for rep in SD_DESCRIPTORS]
    assert max(peaks) >= 1 << 63 and {ring.packed_width(p) for p in peaks} == {64, 128}

    def run():
        return check_loops(lazy, nx, ng), check_loops(lazy, nx, ng, variant="printed"), check_sd(lazy, nx, ng)

    loops, printed, sd = run()
    assert all(r.passed for r in loops + sd)
    assert [(r.index, r.first_nonzero) for r in printed if not r.passed] == [
        (20, (1, 1, "-2*c^2-4*c^3+8*c^4-2*c^5")),
        (21, (1, 1, "-2*c^2-4*c^3+8*c^4-2*c^5")),
    ]
    monkeypatch.setattr(ring, "_SIGN_BITS", 129)
    assert run() == (loops, printed, sd)
