"""Loop equation catalog and the reparameterisation generator."""

from dataclasses import replace
from fractions import Fraction

import pytest

from pottsloop.freealg import Word
from pottsloop.loopcat import (
    CATALOG,
    SD_DESCRIPTORS,
    check_loops,
    check_sd,
    extract_amplitude,
    first_nonzero,
    loop_residual,
    resolvent_series,
    sd_matches_catalog,
    sd_residual,
)
from pottsloop.solver import LazyTable, ModelSpec, TruncationError, solve_series


def test_catalog_shape():
    assert len(CATALOG) == 23
    assert [eq.index for eq in CATALOG] == list(range(1, 24))
    assert len(SD_DESCRIPTORS) == 23
    emended = [eq.index for eq in CATALOG if eq.emended is not None]
    assert emended == [20, 21]


def test_extract_amplitude_examples(small_table):
    a = extract_amplitude(small_table, "1", 3, 3)
    assert a.coefficient(0) == small_table.gseries("1", 3)

    # symmetrised: average of the label and its reverse
    s = extract_amplitude(small_table, "122", 2, 2, sym=True)
    direct = extract_amplitude(small_table, "122", 2, 2)
    reverse = extract_amplitude(small_table, "221", 2, 2)
    assert s * 2 == direct + reverse

    lead = extract_amplitude(small_table, "12", 2, 2).coefficient(0)
    assert str(lead[0]) == "c"


def test_extract_amplitude_depth_errors(small_table):
    with pytest.raises(TruncationError):
        extract_amplitude(small_table, "12222", small_table.S, delta=0)


def test_all_loop_residuals_vanish_shallow(medium_table):
    results = check_loops(medium_table, nx=2, ng=3)
    assert all(r.passed for r in results)


def test_printed_entries_20_21_fail_with_exact_witness(medium_table):
    """The verbatim transcription of entries 20 and 21 is inconsistent; the
    failure is pinned to its exact leading coefficient so any change in the
    solver would be noticed here too."""
    for idx in (20, 21):
        res = loop_residual(CATALOG[idx - 1], medium_table, 2, 3, variant="printed")
        fz = first_nonzero(res)
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
    res = loop_residual(CATALOG[0], tab, 3, 3)
    assert res.is_zero()


def test_resolvent_series_is_cyclic_in_blocks(small_table):
    # p(pre a^j post) depends only on the cyclic word, so rotating the
    # explicit part around the block leaves the series unchanged
    a = resolvent_series(small_table, Word.from_string("1"), 0, Word.from_string("1"), 3, 2)
    b = resolvent_series(small_table, Word.from_string(""), 0, Word.from_string("11"), 3, 2)
    assert a == b


def test_sd_residuals_vanish_and_match_catalog(medium_table):
    for rep in SD_DESCRIPTORS:
        res = sd_residual(rep, medium_table, 2, 3)
        assert res.is_zero(), f"descriptor {rep.index}"
        assert sd_matches_catalog(rep, medium_table, 2, 3), f"descriptor {rep.index}"


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
        assert sd_residual(rep, tab, 2, 2).is_zero()


def test_check_drivers_report_passes(medium_table):
    loops = check_loops(medium_table, 2, 3)
    sd = check_sd(medium_table, 2, 3)
    assert all(r.passed for r in loops)
    assert all(r.passed for r in sd)
    assert "PASS" in loops[0].line()
