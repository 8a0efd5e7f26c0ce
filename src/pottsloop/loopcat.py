"""Catalog of scalar loop equations and the reparameterisation generator.

Every constraint on the fixed-spin disk amplitude is a linear/quadratic
relation among amplitude series

    phi_label(x) = sum_k x^k p(label 0^k),

the expectation of a boundary word followed by a block of 0s conjugate to
the expansion variable.  The catalog below transcribes the printed
equations verbatim as data: each entry is a list of terms
(coefficient polynomial in c) * g^a * x^b * [scalar moment] * product of
(shifted, optionally reversal-symmetrised) amplitudes.  A residual is the
term sum, which must vanish identically on the solved table.

The same constraints are generated independently from invariance of the
matrix integral under X0 -> X0 + eps (A (z - X_a)^-1 B + reverse): the
Jacobian comes from the split rule (the resolvent splits the trace at each
X0) and the merge rule (each explicit X0 in A or B splits off a closed
trace), the action variation inserts S'(X0) at the end of the trace, and
expectations factorise in the planar limit.  Each generated residual is
checked to vanish and to reproduce its paired catalog entry term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .freealg import EMPTY_WORD, Word
from .ring import GSeries, Poly, XLaurent
from .solver import _TableBase

# coefficient polynomials in c, ascending powers
_ONE = (1,)
_PC = (1, 1)  # 1 + c
_ND = (-1, -1, 2)  # -(1 + c - 2c^2)
_ND2 = (-2, -2, 4)  # -2(1 + c - 2c^2)
_NC = (0, -1)  # -c
_NC2 = (0, -2)  # -2c
D_POLY = Poly((1, 1, -2))


@dataclass(frozen=True)
class Amp:
    """A (possibly shifted, possibly symmetrised) amplitude reference."""

    label: str
    delta: int = 0  # power of the x0 coefficient shift applied
    sym: bool = False  # average with the reversed label

    def __str__(self):
        s = f"phi({self.label or 'resolvent'})"
        if self.sym:
            s = f"sym {s}"
        if self.delta:
            s = f"D0^{self.delta} {s}" if self.delta > 1 else f"D0 {s}"
        return s


@dataclass(frozen=True)
class Term:
    coeff: tuple  # integer coefficients of the c-polynomial
    amps: tuple  # one or two Amp factors
    p_label: Optional[str] = None  # scalar moment factor
    g_power: int = 0
    x_power: int = 0


@dataclass(frozen=True)
class LoopEquation:
    """One cataloged constraint.

    ``terms`` is the verbatim transcription of the source.  For two entries
    the transcribed subscripts are inconsistent with the reparameterisation
    identity generated at the same position (the letter 2 appears where 0
    belongs, in three amplitude labels); the corrected reading, forced term
    by term by the generator in this module, is kept in ``emended`` and used
    by default.  Entries with ``emended = None`` are consistent as printed.
    """

    index: int  # 1-based position, aligned with the reparameterisation list
    template: str  # boundary-word labeling string
    terms: tuple
    emended: Optional[tuple] = None

    def effective_terms(self, variant: str = "emended") -> tuple:
        if variant == "emended" and self.emended is not None:
            return self.emended
        if variant not in ("emended", "printed"):
            raise ValueError(f"unknown catalog variant {variant!r}")
        return self.terms


def _t(coeff, amps, p=None, g=0, x=0):
    return Term(tuple(coeff), tuple(amps), p, g, x)


def _a(label, d=0, s=False):
    return Amp(label, d, s)


CATALOG = (
    LoopEquation(1, "x0...x0", (
        _t(_PC, [_a("", 1)]),
        _t(_ND, [_a(""), _a("")], x=1),
        _t(_ND, [_a("", 2)], g=1),
        _t(_NC2, [_a("1")]),
    )),
    LoopEquation(2, "x1 x0...x0 x1", (
        _t(_PC, [_a("101")]),
        _t(_ND, [_a("1"), _a("1")], x=1),
        _t(_ND, [_a("1001")], g=1),
        _t(_NC, [_a("111")]),
        _t(_NC, [_a("121")]),
    )),
    LoopEquation(3, "x1 x0...x0 (+ reverse)", (
        _t(_PC, [_a("1", 1)]),
        _t(_ND, [_a(""), _a("1")], x=1),
        _t(_ND, [_a("1", 2)], g=1),
        _t(_NC, [_a("11")]),
        _t(_NC, [_a("12")]),
    )),
    LoopEquation(4, "x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, [_a("12", 1)]),
        _t(_ND, [_a(""), _a("12")], x=1),
        _t(_ND, [_a("12", 2)], g=1),
        _t(_NC, [_a("121")]),
        _t(_NC, [_a("122", s=True)]),
    )),
    LoopEquation(5, "x1 x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, [_a("121", 1)]),
        _t(_ND, [_a(""), _a("121")], x=1),
        _t(_ND, [_a("121", 2)], g=1),
        _t(_NC, [_a("1212")]),
        _t(_NC, [_a("1121", s=True)]),
    )),
    LoopEquation(6, "x1 x0 x2 x0...x0 (+ reverse)", (
        _t(_PC, [_a("102", 1)]),
        _t(_ND, [_a(""), _a("102")], x=1),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("102", 2)], g=1),
        _t(_NC, [_a("1102", s=True)]),
        _t(_NC, [_a("1201", s=True)]),
    )),
    LoopEquation(7, "x1 x0 x1 x0...x0 (+ reverse)", (
        _t(_PC, [_a("101", 1)]),
        _t(_ND, [_a(""), _a("101")], x=1),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("101", 2)], g=1),
        _t(_NC, [_a("1101", s=True)]),
        _t(_NC, [_a("1202", s=True)]),
    )),
    LoopEquation(8, "x0 x1 x2 x0...x0 (+ reverse)", (
        _t(_PC, [_a("12", 2)]),
        _t(_ND, [_a(""), _a("12", 1)], x=1),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("12", 3)], g=1),
        _t(_NC, [_a("1201", s=True)]),
        _t(_NC, [_a("1202", s=True)]),
    )),
    LoopEquation(9, "x1 x2 x0...x0 x0 (+ reverse)", (
        _t(_PC, [_a("12", 2)]),
        _t(_ND, [_a("", 1), _a("12")], x=1),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("12", 3)], g=1),
        _t(_NC, [_a("112", 1, s=True)]),
        _t(_NC, [_a("121", 1)]),
    )),
    LoopEquation(10, "x2...x2", (
        _t(_ONE, [_a("1")]),
        _t(_ND, [_a("11")], g=1),
        _t(_NC, [_a("", 1)]),
    )),
    LoopEquation(11, "x1 x2...x2 x1", (
        _t(_PC, [_a("121")]),
        _t(_ND, [_a("1221")], g=1),
        _t(_NC, [_a("111")]),
        _t(_NC, [_a("101")]),
    )),
    LoopEquation(12, "x1 x2...x2 (+ reverse)", (
        _t(_PC, [_a("12")]),
        _t(_ND, [_a("112", s=True)], g=1),
        _t(_NC, [_a("11")]),
        _t(_NC, [_a("1", 1)]),
    )),
    LoopEquation(13, "x0 x2...x2 (+ reverse)", (
        _t(_PC, [_a("11")]),
        _t(_ND, [_a("")]),
        _t(_ND, [_a("111")], g=1),
        _t(_NC, [_a("12")]),
        _t(_NC, [_a("1", 1)]),
    )),
    LoopEquation(14, "x1 x1 x2...x2 (+ reverse)", (
        _t(_PC, [_a("112", s=True)]),
        _t(_ND, [_a("1122")], g=1),
        _t(_NC, [_a("111")]),
        _t(_NC, [_a("11", 1)]),
    )),
    LoopEquation(15, "x2 x1 x2...x2 (+ reverse)", (
        _t(_PC, [_a("102")]),
        _t(_ND, [_a("1102", s=True)], g=1),
        _t(_NC, [_a("101")]),
        _t(_NC, [_a("1", 2)]),
    )),
    LoopEquation(16, "x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, [_a("101")]),
        _t(_ND, [_a("")], p="1"),
        _t(_ND, [_a("1101", s=True)], g=1),
        _t(_NC, [_a("102")]),
        _t(_NC, [_a("1", 2)]),
    )),
    LoopEquation(17, "x1 x0 x2...x2 (+ reverse)", (
        _t(_PC, [_a("121")]),
        _t(_ND, [_a("")], p="1"),
        _t(_ND, [_a("1121", s=True)], g=1),
        _t(_NC, [_a("112", s=True)]),
        _t(_NC, [_a("12", 1)]),
    )),
    LoopEquation(18, "x0 x1 x2...x2 x0 (+ reverse)", (
        _t(_PC, [_a("1222", s=True)]),
        _t(_ND2, [_a("12")]),
        _t(_ND, [_a("12222", s=True)], g=1),
        _t(_NC, [_a("1212")]),
        _t(_NC, [_a("1202", s=True)]),
    )),
    LoopEquation(19, "x1 x2...x2 x0 x0 (+ reverse)", (
        _t(_PC, [_a("1222", s=True)]),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("12222", s=True)], g=1),
        _t(_NC, [_a("1122")]),
        _t(_NC, [_a("1102", s=True)]),
    )),
    LoopEquation(20, "x0 x2...x2 x0 x2 (+ reverse)", (
        _t(_PC, [_a("1211", s=True)]),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("12111", s=True)], g=1),
        _t(_NC, [_a("1001")]),
        _t(_NC, [_a("1201", s=True)]),
    ), emended=(
        _t(_PC, [_a("1011", s=True)]),
        _t(_ND, [_a("10")]),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("10111", s=True)], g=1),
        _t(_NC, [_a("1001")]),
        _t(_NC, [_a("1201", s=True)]),
    )),
    LoopEquation(21, "x0 x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, [_a("1211", s=True)]),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("")], p="12"),
        _t(_ND, [_a("12111", s=True)], g=1),
        _t(_NC, [_a("1202", s=True)]),
        _t(_NC, [_a("101", 1)]),
    ), emended=(
        _t(_PC, [_a("1011", s=True)]),
        _t(_ND, [_a("10")]),
        _t(_ND, [_a("")], p="12"),
        _t(_ND, [_a("10111", s=True)], g=1),
        _t(_NC, [_a("1202", s=True)]),
        _t(_NC, [_a("101", 1)]),
    )),
    LoopEquation(22, "x0 x2...x2 x1 x0 (+ reverse)", (
        _t(_PC, [_a("1222", s=True)]),
        _t(_ND2, [_a("12")]),
        _t(_ND, [_a("12222", s=True)], g=1),
        _t(_NC, [_a("1212")]),
        _t(_NC, [_a("1202", s=True)]),
    )),
    LoopEquation(23, "x0 x0 x1 x2...x2 (+ reverse)", (
        _t(_PC, [_a("1222", s=True)]),
        _t(_ND, [_a("12")]),
        _t(_ND, [_a("1")], p="1"),
        _t(_ND, [_a("12222", s=True)], g=1),
        _t(_NC, [_a("1221")]),
        _t(_NC, [_a("112", 1, s=True)]),
    )),
)


# ---------------------------------------------------------------------------
# amplitude extraction
# ---------------------------------------------------------------------------


def extract_amplitude(
    table: _TableBase,
    label,
    nx: int,
    ng: Optional[int] = None,
    *,
    delta: int = 0,
    sym: bool = False,
) -> XLaurent:
    """The x0-series of an amplitude: coefficient k is p(label 0^(k+delta)).

    With sym=True the reversed-label series is averaged in.  Depth beyond
    the table's solved region raises TruncationError with the bound.
    """
    word = label if isinstance(label, Word) else Word.from_string(str(label))
    ng = table.ng if ng is None else ng
    labels = [word]
    if sym:
        rev = word.reverse()
        if rev != word:
            labels.append(rev)
    coeffs = []
    for k in range(nx + 1):
        acc = None
        for lab in labels:
            # appending 0-letters leaves the packed bits unchanged
            g = GSeries(
                [table.p_coeff_packed(lab.bits, lab.n + k + delta, n) for n in range(ng + 1)],
                ng,
            )
            acc = g if acc is None else acc + g
        if len(labels) == 2:
            acc = acc * Fraction(1, 2)
        coeffs.append(acc)
    return XLaurent(0, coeffs, nx, ng)


def _amp_series(table, amp: Amp, nx: int, ng: int) -> XLaurent:
    return extract_amplitude(table, amp.label, nx, ng, delta=amp.delta, sym=amp.sym)


def _coeff_const(coeffs, table: _TableBase, ng: int) -> GSeries:
    """A c-polynomial as a GSeries constant at the table's coupling."""
    return GSeries.constant(table.spec.const(Poly(coeffs)), ng)


def loop_residual(
    eq: LoopEquation, table: _TableBase, nx: int, ng: int, *, variant: str = "emended"
) -> XLaurent:
    """Term sum of a cataloged equation on the solved table (must vanish)."""
    cache: dict = {}

    def amp(a: Amp) -> XLaurent:
        if a not in cache:
            cache[a] = _amp_series(table, a, nx, ng)
        return cache[a]

    total = XLaurent.zero(nx, ng)
    for term in eq.effective_terms(variant):
        s = amp(term.amps[0])
        if len(term.amps) == 2:
            s = s * amp(term.amps[1])
        if term.x_power:
            s = s.shift_x(term.x_power)
        if term.p_label is not None:
            s = s * table.gseries(Word.from_string(term.p_label), ng)
        gs = _coeff_const(term.coeff, table, ng)
        if term.g_power:
            gs = gs.shift_g(term.g_power)
        total = total + s * gs
    return total


# ---------------------------------------------------------------------------
# Schwinger-Dyson generator (split/merge reparameterisations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reparameterisation:
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


def resolvent_series(table, pre: Word, a: int, post: Word, nx: int, ng: int) -> XLaurent:
    """sum_j x^(j+1) p(pre a^j post): one resolvent expanded inside a trace."""
    coeffs = [GSeries.zero(ng)]
    for j in range(nx):
        word = pre + Word([a] * j) + post
        coeffs.append(table.gseries(word, ng))
    return XLaurent(0, coeffs, nx, ng)


def sd_residual(rep: Reparameterisation, table: _TableBase, nx: int, ng: int) -> XLaurent:
    """Planar Schwinger-Dyson residual of one reparameterisation.

    Computed with the propagator normalisation cleared: the residual is
    (D K - D J)/x with D = 1 + c - 2c^2, where J carries the split/merge
    Jacobian terms (planar-factorised) and D K = (1+c) T(X0) - c T(X1)
    - c T(X2) - g D T(X0 X0) with T(M) the trace of the piece times M.
    Equals (number of pieces) times the paired catalog residual.
    """
    nxi = nx + 1  # the final /x costs one order
    one_pc = _coeff_const((1, 1), table, ng)
    c_g = _coeff_const((0, 1), table, ng)
    d_g = _coeff_const(D_POLY.coeffs, table, ng)
    gd = d_g.shift_g(1)

    J = XLaurent.zero(nxi, ng)
    DK = XLaurent.zero(nxi, ng)
    for A, a, B in rep.pieces:
        pre = Word.from_string(A) if A else EMPTY_WORD
        post = Word.from_string(B) if B else EMPTY_WORD
        # Jacobian: split rule (only an X0 resolvent splits under d/dX0)
        if a == 0:
            J = J + resolvent_series(table, pre, 0, EMPTY_WORD, nxi, ng) * resolvent_series(
                table, EMPTY_WORD, 0, post, nxi, ng
            )
        # merge rule: each explicit X0 inside A or B splits off a closed trace
        for i in range(len(pre)):
            if pre[i] == 0:
                closed = table.gseries(pre[:i], ng)
                J = J + resolvent_series(table, pre[i + 1 :], a, post, nxi, ng) * closed
        for i in range(len(post)):
            if post[i] == 0:
                closed = table.gseries(post[i + 1 :], ng)
                J = J + resolvent_series(table, pre, a, post[:i], nxi, ng) * closed
        # action variation, propagator normalisation cleared
        t0 = resolvent_series(table, pre, a, post.append(0), nxi, ng)
        t1 = resolvent_series(table, pre, a, post.append(1), nxi, ng)
        t2 = resolvent_series(table, pre, a, post.append(2), nxi, ng)
        t00 = resolvent_series(table, pre, a, post.append(0).append(0), nxi, ng)
        DK = DK + t0 * one_pc - (t1 + t2) * c_g - t00 * gd

    num = DK - J * d_g
    if not num.coefficient(0).is_zero():
        raise ArithmeticError("Schwinger-Dyson combination has a spurious x^0 term")
    shifted = XLaurent(num.low - 1, num.coeffs, nx, ng) if not num.is_zero() else XLaurent.zero(nx, ng)
    return shifted


def _reproduces_catalog(
    rep: Reparameterisation, residual: XLaurent, table: _TableBase, nx: int, ng: int, variant: str
) -> bool:
    """``residual`` (of ``rep``) equals npieces times the paired catalog residual."""
    paired = loop_residual(CATALOG[rep.index - 1], table, nx, ng, variant=variant)
    return (residual - paired * len(rep.pieces)).is_zero()


def sd_matches_catalog(
    rep: Reparameterisation, table: _TableBase, nx: int, ng: int, *, variant: str = "emended"
) -> bool:
    """The generated residual equals npieces times the paired catalog entry.

    Both sides vanish on a solved table, so the meaningful content is the
    series-level equality of the two constructions, which pins the catalog
    transcription against the generator.
    """
    return _reproduces_catalog(rep, sd_residual(rep, table, nx, ng), table, nx, ng, variant)


# ---------------------------------------------------------------------------
# check drivers
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    index: int
    label: str
    passed: bool
    first_nonzero: Optional[tuple] = None  # (x exponent, g order, value string)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.first_nonzero is not None:
            e, n, v = self.first_nonzero
            extra = f"  first nonzero at x^{e} g^{n}: {v}"
        return f"[{status}] {self.index:>2}  {self.label}{extra}"


def first_nonzero(series: XLaurent):
    for e, gs in series.items():
        for n, v in enumerate(gs.coeffs):
            if not v.is_zero():
                return (e, n, str(v))
    return None


def check_loops(table: _TableBase, nx: int, ng: int, *, variant: str = "emended") -> list:
    """Residuals of all cataloged scalar equations; one result per entry."""
    out = []
    for eq in CATALOG:
        res = loop_residual(eq, table, nx, ng, variant=variant)
        fz = first_nonzero(res)
        label = eq.template
        if variant == "emended" and eq.emended is not None:
            label += "  [emended transcription]"
        out.append(CheckResult(eq.index, label, fz is None, fz))
    return out


def check_sd(table: _TableBase, nx: int, ng: int) -> list:
    """Residuals of all reparameterisation identities, plus catalog pairing."""
    out = []
    for rep in SD_DESCRIPTORS:
        res = sd_residual(rep, table, nx, ng)
        fz = first_nonzero(res)
        ok = fz is None
        label = str(rep)
        if ok and not _reproduces_catalog(rep, res, table, nx, ng, "emended"):
            ok = False
            label += "  (does not reproduce its catalog pairing)"
        out.append(CheckResult(rep.index, label, ok, fz))
    return out
