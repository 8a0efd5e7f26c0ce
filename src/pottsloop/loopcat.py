"""The loop-catalog checks: the reparameterisation generator and one evaluator.

The constraints of the catalog (``catalog.CATALOG``) are generated
independently from invariance of the matrix integral under
X0 -> X0 + eps (A (z - X_a)^-1 B + reverse): the Jacobian comes from the
split rule (the resolvent splits the trace at each X0) and the merge rule
(each explicit X0 in A or B splits off a closed trace), the action
variation inserts S'(X0) at the end of the trace, and expectations
factorise in the planar limit.  The generator emits catalog terms, whose
amplitudes may carry another block letter and a word after the block, and
one evaluator (``_loop_rows``) sums catalog entries and generated
identities alike.  Each generated residual is checked to vanish.  Its
pairing with the catalog entry is that entry's ``check_loops`` verdict on
the same table: on the solved table, where both sides vanish, it says
nothing about the two constructions term by term.

Every residual is evaluated on packed rows (``ring.PackedRows``): one
integer per x^e g^n slot, as the table packs it: the c-polynomial at
c = 2^64 at symbolic c, the scaled value at c = a/b.  The table gives an
amplitude's rows with their packing and a bound on their digits from
their values at c = 1 (``_TableBase._rows``).  A product is one integer
product per pair of slots, packed at 64 bits while its bound stays below
2^63, wider otherwise, so a slot is zero iff its integer is; only the
first nonzero slot a check reports is decoded.  The printed catalog
(``CATALOG`` and its record types) lives in ``catalog``; the
reparameterisations that re-derive it entry by entry
(``SD_DESCRIPTORS``) are transcribed here.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .catalog import _NC, _ND, _PC, CATALOG, Amp, Term
from .poly import Poly
from .record import FrozenRecord, Record
from .ring import PackedRows, balanced_digits, packed_mul, packed_sum
from .tables import _TableBase
from .words import Word

# ---------------------------------------------------------------------------
# row series (see the module docstring)
# ---------------------------------------------------------------------------


def _nonzero_slots(s: PackedRows):
    """(first nonzero slot as (x exponent, g order, value string) or None, nonzero slot count)."""
    bad = [(e, n, v) for e, row in enumerate(s.rows) for n, v in enumerate(row) if v]
    if not bad:
        return None, 0
    e, n, v = bad[0]
    return (e, n, str(Poly(balanced_digits(v, s.width), s.den))), len(bad)


# ---------------------------------------------------------------------------
# amplitude extraction and catalog residuals
# ---------------------------------------------------------------------------


def _amp_rows(table, amp, nx, ng) -> PackedRows:
    """Rows of an amplitude series: coefficient k is p(label a^(k+delta) post).

    A symmetrised amplitude averages in the reversed label.  Depth beyond
    the table's solved region raises TruncationError with the bound.  The
    packing, the digit bounds at c = 1 and their 2^62 guard come from the
    table (``_TableBase._rows``); the average only scales den by the label
    count.
    """
    word, post = Word.from_string(amp.label), Word.from_string(amp.post)
    labels = [word] if not amp.sym or word.reverse() == word else [word, word.reverse()]
    blocks = range(amp.delta, amp.delta + nx + 1)  # block a^m at x^(m - delta)
    slots = [[w + Word._raw(m, amp.letter * (4**m - 1) // 3) + post for w in labels] for m in blocks]
    rows = table._rows(slots, ng)
    rows.den *= len(labels)
    return rows


def _factors(term) -> tuple:
    """A term's cache keys: its amplitudes, then the label of its scalar moment if it has one."""
    return term.amps if term.p_label is None else term.amps + (term.p_label,)


def _loop_rows(terms, table, nx, ng, cache=None, uses=None) -> PackedRows:
    """Rows of a term sum: a catalog entry or a generated identity (vanishes on a solved table).

    Amplitude rows are cached, one probe per factor; a scalar moment (the
    x^0 slot of its label's amplitude) under its label.  A fresh cache
    serves the one sum.  ``check_loops`` passes one ``cache`` to every
    entry, so each amplitude is read once per call, and ``uses``, the reads
    of each key left in the call: a row leaves the cache at its last read.
    """
    cache = {} if cache is None else cache
    series = []
    for term in terms:
        s = None
        for a in _factors(term):
            rows = cache.get(a)
            if rows is None:
                rows = cache[a] = _amp_rows(table, a, nx, ng) if type(a) is Amp else _amp_rows(table, Amp(a), 0, ng)
            if uses is not None:
                uses[a] -= 1
                if not uses[a]:
                    del cache[a]
            s = rows if s is None else packed_mul(s, rows, nx, ng)
        series.append((table.spec.const(Poly(term.coeff)), term.g_power, term.x_power, s))
    return packed_sum(series, nx, ng)


# ---------------------------------------------------------------------------
# Schwinger-Dyson generator (split/merge reparameterisations)
# ---------------------------------------------------------------------------


class Reparameterisation(FrozenRecord):
    """delta X0 = sum of pieces A (z - X_a)^-1 B."""

    index: int
    pieces: tuple  # ((A word str, resolvent letter, B word str), ...)

    def __str__(self):
        def fmt(piece):
            A, a, B = piece
            mid = f"(z-X{a})^-1"
            left = " ".join(f"X{ch}" for ch in A)
            right = " ".join(f"X{ch}" for ch in B)
            return " ".join(p for p in (left, mid, right) if p)

        return " + ".join(fmt(p) for p in self.pieces)


SD_DESCRIPTORS = (
    Reparameterisation(1, (("", 0, ""),)),
    Reparameterisation(2, (("1", 0, "1"),)),
    Reparameterisation(3, (("1", 0, ""), ("", 0, "1"))),
    Reparameterisation(4, (("21", 0, ""), ("", 0, "12"))),
    Reparameterisation(5, (("121", 0, ""), ("", 0, "121"))),
    Reparameterisation(6, (("102", 0, ""), ("", 0, "201"))),
    Reparameterisation(7, (("101", 0, ""), ("", 0, "101"))),
    Reparameterisation(8, (("012", 0, ""), ("", 0, "210"))),
    Reparameterisation(9, (("12", 0, "0"), ("0", 0, "21"))),
    Reparameterisation(10, (("", 2, ""),)),
    Reparameterisation(11, (("1", 2, "1"),)),
    Reparameterisation(12, (("1", 2, ""), ("", 2, "1"))),
    Reparameterisation(13, (("", 2, "0"), ("0", 2, ""))),
    Reparameterisation(14, (("", 2, "11"), ("11", 2, ""))),
    Reparameterisation(15, (("21", 2, ""), ("", 2, "12"))),
    Reparameterisation(16, (("20", 2, ""), ("", 2, "02"))),
    Reparameterisation(17, (("10", 2, ""), ("", 2, "01"))),
    Reparameterisation(18, (("01", 2, "0"), ("0", 2, "10"))),
    Reparameterisation(19, (("1", 2, "00"), ("00", 2, "1"))),
    Reparameterisation(20, (("0", 2, "02"), ("20", 2, "0"))),
    Reparameterisation(21, (("", 2, "020"), ("020", 2, ""))),
    Reparameterisation(22, (("0", 2, "10"), ("01", 2, "0"))),
    Reparameterisation(23, (("001", 2, ""), ("", 2, "100"))),
)


def _sd_terms(rep):
    """The planar Schwinger-Dyson residual of one reparameterisation, as catalog terms.

    With the propagator normalisation cleared the residual is (D K - D J)/x,
    D = 1 + c - 2c^2: J carries the split/merge Jacobian terms
    (planar-factorised) and D K = (1+c) T(X0) - c T(X1) - c T(X2)
    - g D T(X0 X0), with T(M) the trace of the piece times M.  A resolvent
    inside a trace is x times an amplitude with the piece's block letter,
    and every term holds one, so the /x lowers each term's x power by one.
    """
    terms = []
    for A, a, B in rep.pieces:
        # Jacobian, times -D: split rule (only an X0 resolvent splits under
        # d/dX0) and merge rule (each explicit X0 inside A or B splits off a
        # closed trace)
        if a == 0:
            terms.append(Term(_ND, (Amp(A), Amp("", post=B)), x_power=1))
        terms += [Term(_ND, (Amp(A[i + 1 :], letter=a, post=B),), p_label=A[:i]) for i, l in enumerate(A) if l == "0"]
        terms += [Term(_ND, (Amp(A, letter=a, post=B[:i]),), p_label=B[i + 1 :]) for i, l in enumerate(B) if l == "0"]
        # action variation, propagator normalisation cleared
        for p, gp, tail in ((_PC, 0, "0"), (_NC, 0, "1"), (_NC, 0, "2"), (_ND, 1, "00")):
            terms.append(Term(p, (Amp(A, letter=a, post=B + tail),), g_power=gp))
    return tuple(terms)


# ---------------------------------------------------------------------------
# check drivers
# ---------------------------------------------------------------------------


class CheckResult(Record):
    index: int
    label: str
    passed: bool
    first_nonzero: Optional[tuple] = None  # (x exponent, g order, value string)
    bad_slots: int = 0  # nonzero residual slots

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.first_nonzero is not None:
            e, n, v = self.first_nonzero
            extra = f"  first nonzero at x^{e} g^{n}: {v}"
        return f"[{status}] {self.index:>2}  {self.label}{extra}"


def catalog_edge(nx: int, ng: int) -> int:
    """The lazy-table edge ``check_loops`` and ``check_sd`` read to x^nx, g^ng.

    The longest amplitude word is the x-block of nx letters plus at most 5
    of label, shift and trailing word (over ``CATALOG``, both variants, and
    every ``_sd_terms``), and a slot (k, n) recurses down to k + n letters.
    """
    return nx + ng + 5


def check_loops(table: _TableBase, nx: int, ng: int, *, variant: str = "emended") -> list:
    """Residuals of all cataloged scalar equations; one result per entry."""
    out = []
    cache, uses = {}, Counter(a for eq in CATALOG for t in eq.effective_terms(variant) for a in _factors(t))
    for eq in CATALOG:
        fz, bad = _nonzero_slots(_loop_rows(eq.effective_terms(variant), table, nx, ng, cache, uses))
        label = eq.template
        if variant == "emended" and eq.emended is not None:
            label += "  [emended transcription]"
        out.append(CheckResult(eq.index, label, fz is None, fz, bad))
    return out


def check_sd(table: _TableBase, nx: int, ng: int) -> list:
    """Residuals of all reparameterisation identities, plus their catalog pairing.

    The pairing is the paired entry's ``check_loops`` verdict: a vanishing
    generated residual equals npieces times the catalog residual exactly
    when that residual vanishes too.  It adds no term-by-term comparison
    of the two constructions.
    """
    out = []
    catalog = check_loops(table, nx, ng)
    for rep in SD_DESCRIPTORS:
        fz, bad = _nonzero_slots(_loop_rows(_sd_terms(rep), table, nx, ng))
        ok = fz is None
        label = str(rep)
        if ok and not catalog[rep.index - 1].passed:
            ok = False
            label += "  (does not reproduce its catalog pairing)"
        out.append(CheckResult(rep.index, label, ok, fz, bad))
    return out
