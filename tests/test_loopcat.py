"""Loop equation catalog and the reparameterisation generator."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import laurent, shift_x
from pottsloop.freealg import EMPTY_WORD, Word, orbit_rep
from pottsloop.loopcat import (
    CATALOG,
    Amp,
    SD_DESCRIPTORS,
    _amp_rows,
    _loop_rows,
    _reproduces_catalog,
    _sd_terms,
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
    for rep in SD_DESCRIPTORS:
        rows = _loop_rows(_sd_terms(rep), medium_table, 2, 3)
        assert laurent(rows, 2, 3).is_zero(), f"descriptor {rep.index}"
        assert _reproduces_catalog(rep, rows, medium_table, 2, 3, "emended"), f"descriptor {rep.index}"


def test_check_sd_reports_a_broken_catalog_pairing(medium_table, monkeypatch):
    """An altered catalog term fails its own pairing and no other."""
    from pottsloop import loopcat

    eq = CATALOG[9]  # entry 10: phi(1) - g D phi(11) - c D0 phi(resolvent) = 0
    altered = replace(eq, terms=(replace(eq.terms[0], coeff=(2,)),) + eq.terms[1:])
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
        super().__init__(spec)
        self._values = {}

    def _raw(self, bits, k, n):
        if (k + n) & 1 or n < 0:
            return 0
        key = (orbit_rep(bits, k), k, n)
        if key not in self._values:
            rng = random.Random(f"generic:{key}")
            if self.symbolic:
                self._values[key] = sum(rng.randrange(1, 1 << 16) << (64 * i) for i in range(3))
            else:
                self._values[key] = rng.randrange(1, 1 << 16)
        return self._values[key]


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
        pairs = (ref - entry * len(rep.pieces)).is_zero()
        assert _reproduces_catalog(rep, rows, t, nx, ng, "emended") == pairs, rep.index
        if pairs:
            paired.append(rep.index)
    # the entries that pair with their generated identity as formal sums, up to symmetry
    assert paired == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 16, 17]
    for label, delta, sym in (("1", 0, False), ("12", 1, True), ("1022", 2, True), ("121", 0, True)):
        amp = Amp(label, delta, sym)
        assert laurent(_amp_rows(t, amp, nx, ng), nx, ng) == _ref_amp(t, amp, nx, ng)
    ref = _ref_resolvent(t, Word.from_string("1"), 2, Word.from_string("01"), nx, ng)
    assert shift_x(laurent(_amp_rows(t, Amp("1", letter=2, post="01"), nx, ng), nx, ng), 1) == ref
