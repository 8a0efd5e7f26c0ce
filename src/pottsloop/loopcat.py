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
checked to vanish.  Its pairing with the catalog entry (generated residual
= npieces times the catalog residual) is checked on the solved table only,
where both sides vanish; there it is implied by ``check_loops`` and says
nothing about the two constructions term by term.

Every residual is evaluated on integer rows, like the ``NCSeries``
product: a series is (rows, den), rows[e][n] the integer c-digits of den
times its x^e g^n coefficient.  The table reads its own values into rows
(``_TableBase._rows``), products and term sums run on the row kernel of
the ``XLaurent`` product (``ring._laurent_addmul``), a term sum over the
lcm of its denominators, and a ``Poly`` is built only for the first
nonzero slot a check reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .freealg import EMPTY_WORD, Word
from .ring import P_ONE, Poly, _laurent_addmul
from .solver import _TableBase

# coefficient polynomials in c, ascending powers
_ONE = (1,)
_PC = (1, 1)  # 1 + c
_ND = (-1, -1, 2)  # -(1 + c - 2c^2)
_ND2 = (-2, -2, 4)  # -2(1 + c - 2c^2)
_NC = (0, -1)  # -c
_NC2 = (0, -2)  # -2c


@dataclass(frozen=True)
class Amp:
    """A (possibly shifted, possibly symmetrised) amplitude reference."""

    label: str
    delta: int = 0  # power of the x0 coefficient shift applied
    sym: bool = False  # average with the reversed label


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


def _t(coeff, *amps, p=None, g=0, x=0):
    return Term(tuple(coeff), amps, p, g, x)


def _a(label, d=0, s=False):
    return Amp(label, d, s)


CATALOG = (
    LoopEquation(1, "x0...x0", (
        _t(_PC, _a("", 1)),
        _t(_ND, _a(""), _a(""), x=1),
        _t(_ND, _a("", 2), g=1),
        _t(_NC2, _a("1")),
    )),
    LoopEquation(2, "x1 x0...x0 x1", (
        _t(_PC, _a("101")),
        _t(_ND, _a("1"), _a("1"), x=1),
        _t(_ND, _a("1001"), g=1),
        _t(_NC, _a("111")),
        _t(_NC, _a("121")),
    )),
    LoopEquation(3, "x1 x0...x0 (+ reverse)", (
        _t(_PC, _a("1", 1)),
        _t(_ND, _a(""), _a("1"), x=1),
        _t(_ND, _a("1", 2), g=1),
        _t(_NC, _a("11")),
        _t(_NC, _a("12")),
    )),
    LoopEquation(4, "x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, _a("12", 1)),
        _t(_ND, _a(""), _a("12"), x=1),
        _t(_ND, _a("12", 2), g=1),
        _t(_NC, _a("121")),
        _t(_NC, _a("122", s=True)),
    )),
    LoopEquation(5, "x1 x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, _a("121", 1)),
        _t(_ND, _a(""), _a("121"), x=1),
        _t(_ND, _a("121", 2), g=1),
        _t(_NC, _a("1212")),
        _t(_NC, _a("1121", s=True)),
    )),
    LoopEquation(6, "x1 x0 x2 x0...x0 (+ reverse)", (
        _t(_PC, _a("102", 1)),
        _t(_ND, _a(""), _a("102"), x=1),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("102", 2), g=1),
        _t(_NC, _a("1102", s=True)),
        _t(_NC, _a("1201", s=True)),
    )),
    LoopEquation(7, "x1 x0 x1 x0...x0 (+ reverse)", (
        _t(_PC, _a("101", 1)),
        _t(_ND, _a(""), _a("101"), x=1),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("101", 2), g=1),
        _t(_NC, _a("1101", s=True)),
        _t(_NC, _a("1202", s=True)),
    )),
    LoopEquation(8, "x0 x1 x2 x0...x0 (+ reverse)", (
        _t(_PC, _a("12", 2)),
        _t(_ND, _a(""), _a("12", 1), x=1),
        _t(_ND, _a("12")),
        _t(_ND, _a("12", 3), g=1),
        _t(_NC, _a("1201", s=True)),
        _t(_NC, _a("1202", s=True)),
    )),
    LoopEquation(9, "x1 x2 x0...x0 x0 (+ reverse)", (
        _t(_PC, _a("12", 2)),
        _t(_ND, _a("", 1), _a("12"), x=1),
        _t(_ND, _a("12")),
        _t(_ND, _a("12", 3), g=1),
        _t(_NC, _a("112", 1, s=True)),
        _t(_NC, _a("121", 1)),
    )),
    LoopEquation(10, "x2...x2", (
        _t(_ONE, _a("1")),
        _t(_ND, _a("11"), g=1),
        _t(_NC, _a("", 1)),
    )),
    LoopEquation(11, "x1 x2...x2 x1", (
        _t(_PC, _a("121")),
        _t(_ND, _a("1221"), g=1),
        _t(_NC, _a("111")),
        _t(_NC, _a("101")),
    )),
    LoopEquation(12, "x1 x2...x2 (+ reverse)", (
        _t(_PC, _a("12")),
        _t(_ND, _a("112", s=True), g=1),
        _t(_NC, _a("11")),
        _t(_NC, _a("1", 1)),
    )),
    LoopEquation(13, "x0 x2...x2 (+ reverse)", (
        _t(_PC, _a("11")),
        _t(_ND, _a("")),
        _t(_ND, _a("111"), g=1),
        _t(_NC, _a("12")),
        _t(_NC, _a("1", 1)),
    )),
    LoopEquation(14, "x1 x1 x2...x2 (+ reverse)", (
        _t(_PC, _a("112", s=True)),
        _t(_ND, _a("1122"), g=1),
        _t(_NC, _a("111")),
        _t(_NC, _a("11", 1)),
    )),
    LoopEquation(15, "x2 x1 x2...x2 (+ reverse)", (
        _t(_PC, _a("102")),
        _t(_ND, _a("1102", s=True), g=1),
        _t(_NC, _a("101")),
        _t(_NC, _a("1", 2)),
    )),
    LoopEquation(16, "x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, _a("101")),
        _t(_ND, _a(""), p="1"),
        _t(_ND, _a("1101", s=True), g=1),
        _t(_NC, _a("102")),
        _t(_NC, _a("1", 2)),
    )),
    LoopEquation(17, "x1 x0 x2...x2 (+ reverse)", (
        _t(_PC, _a("121")),
        _t(_ND, _a(""), p="1"),
        _t(_ND, _a("1121", s=True), g=1),
        _t(_NC, _a("112", s=True)),
        _t(_NC, _a("12", 1)),
    )),
    LoopEquation(18, "x0 x1 x2...x2 x0 (+ reverse)", (
        _t(_PC, _a("1222", s=True)),
        _t(_ND2, _a("12")),
        _t(_ND, _a("12222", s=True), g=1),
        _t(_NC, _a("1212")),
        _t(_NC, _a("1202", s=True)),
    )),
    LoopEquation(19, "x1 x2...x2 x0 x0 (+ reverse)", (
        _t(_PC, _a("1222", s=True)),
        _t(_ND, _a("12")),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("12222", s=True), g=1),
        _t(_NC, _a("1122")),
        _t(_NC, _a("1102", s=True)),
    )),
    LoopEquation(20, "x0 x2...x2 x0 x2 (+ reverse)", (
        _t(_PC, _a("1211", s=True)),
        _t(_ND, _a("12")),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("12111", s=True), g=1),
        _t(_NC, _a("1001")),
        _t(_NC, _a("1201", s=True)),
    ), emended=(
        _t(_PC, _a("1011", s=True)),
        _t(_ND, _a("10")),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("10111", s=True), g=1),
        _t(_NC, _a("1001")),
        _t(_NC, _a("1201", s=True)),
    )),
    LoopEquation(21, "x0 x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, _a("1211", s=True)),
        _t(_ND, _a("12")),
        _t(_ND, _a(""), p="12"),
        _t(_ND, _a("12111", s=True), g=1),
        _t(_NC, _a("1202", s=True)),
        _t(_NC, _a("101", 1)),
    ), emended=(
        _t(_PC, _a("1011", s=True)),
        _t(_ND, _a("10")),
        _t(_ND, _a(""), p="12"),
        _t(_ND, _a("10111", s=True), g=1),
        _t(_NC, _a("1202", s=True)),
        _t(_NC, _a("101", 1)),
    )),
    LoopEquation(22, "x0 x2...x2 x1 x0 (+ reverse)", (
        _t(_PC, _a("1222", s=True)),
        _t(_ND2, _a("12")),
        _t(_ND, _a("12222", s=True), g=1),
        _t(_NC, _a("1212")),
        _t(_NC, _a("1202", s=True)),
    )),
    LoopEquation(23, "x0 x0 x1 x2...x2 (+ reverse)", (
        _t(_PC, _a("1222", s=True)),
        _t(_ND, _a("12")),
        _t(_ND, _a("1"), p="1"),
        _t(_ND, _a("12222", s=True), g=1),
        _t(_NC, _a("1221")),
        _t(_NC, _a("112", 1, s=True)),
    )),
)


# ---------------------------------------------------------------------------
# row series (see the module docstring)
# ---------------------------------------------------------------------------


def _mul(a, b, nx, ng):
    out = [[[] for _ in range(ng + 1)] for _ in range(nx + 1)]
    _laurent_addmul(out, a[0], b[0])
    return out, a[1] * b[1]


def _combine(terms, nx, ng):
    """Sum of (c-polynomial, g power, x power, row series) terms over the lcm denominator."""
    den = lcm(*(p.den * d for p, _, _, (_, d) in terms))
    out = [[[] for _ in range(ng + 1)] for _ in range(nx + 1)]
    for p, gp, xp, (rows, d) in terms:
        coeff = [()] * gp + [[a * (den // (p.den * d)) for a in p.coeffs]]
        _laurent_addmul(out, [None] * xp + [coeff], rows)
    return out, den


def _nonzero_slots(s):
    """(first nonzero slot as (x exponent, g order, value string) or None, nonzero slot count)."""
    rows, den = s
    bad = [(e, n, d) for e, r in enumerate(rows) for n, d in enumerate(r) if any(d)]
    if not bad:
        return None, 0
    e, n, d = bad[0]
    return (e, n, str(Poly(d, den))), len(bad)


# ---------------------------------------------------------------------------
# amplitude extraction and catalog residuals
# ---------------------------------------------------------------------------


def _amp_rows(table, label, nx, ng, delta, sym):
    """Rows of the x0-series of an amplitude: coefficient k is p(label 0^(k+delta)).

    With sym=True the reversed-label series is averaged in.  Depth beyond
    the table's solved region raises TruncationError with the bound.
    """
    word = label if isinstance(label, Word) else Word.from_string(str(label))
    labels = [word] if not sym or word.reverse() == word else [word, word.reverse()]
    # appending 0-letters leaves the packed bits unchanged
    rows, den = table._rows([[Word._raw(w.n + k + delta, w.bits) for w in labels] for k in range(nx + 1)], ng)
    return rows, den * len(labels)  # a symmetrised amplitude is the average


def _loop_rows(eq, table, nx, ng, variant):
    """Rows of the term sum of a cataloged equation (must vanish on a solved table)."""
    cache = {}  # amplitude rows, per equation
    terms = []
    for term in eq.effective_terms(variant):
        s = None
        for a in term.amps:
            if a not in cache:
                cache[a] = _amp_rows(table, a.label, nx, ng, a.delta, a.sym)
            s = cache[a] if s is None else _mul(s, cache[a], nx, ng)
        if term.p_label is not None:
            s = _mul(s, table._rows([[Word.from_string(term.p_label)]], ng), nx, ng)
        terms.append((table.spec.const(Poly(term.coeff)), term.g_power, term.x_power, s))
    return _combine(terms, nx, ng)


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


def _resolvent_rows(table, pre, a, post, nx, ng):
    """Rows of sum_j x^(j+1) p(pre a^j post): one resolvent expanded inside a trace."""
    return table._rows([()] + [[pre + Word([a] * j) + post] for j in range(nx)], ng)


def _sd_rows(rep, table, nx, ng):
    """Rows of the planar Schwinger-Dyson residual of one reparameterisation.

    Computed with the propagator normalisation cleared: the residual is
    (D K - D J)/x with D = 1 + c - 2c^2, where J carries the split/merge
    Jacobian terms (planar-factorised) and D K = (1+c) T(X0) - c T(X1)
    - c T(X2) - g D T(X0 X0) with T(M) the trace of the piece times M.
    """
    nxi = nx + 1  # the final /x costs one order
    pc, nc, nd = (table.spec.const(Poly(p)) for p in (_PC, _NC, _ND))

    def res(pre, a, post):
        return _resolvent_rows(table, pre, a, post, nxi, ng)

    terms = []
    for A, a, B in rep.pieces:
        pre, post = Word.from_string(A), Word.from_string(B)
        # Jacobian, times -D: split rule (only an X0 resolvent splits under
        # d/dX0) and merge rule (each explicit X0 inside A or B splits off a
        # closed trace)
        jac = [(res(pre, 0, EMPTY_WORD), res(EMPTY_WORD, 0, post))] if a == 0 else []
        for i in range(len(pre)):
            if pre[i] == 0:
                jac.append((res(pre[i + 1 :], a, post), table._rows([[pre[:i]]], ng)))
        for i in range(len(post)):
            if post[i] == 0:
                jac.append((res(pre, a, post[:i]), table._rows([[post[i + 1 :]]], ng)))
        terms += [(nd, 0, 0, _mul(u, v, nxi, ng)) for u, v in jac]
        # action variation, propagator normalisation cleared
        for p, gp, tail in ((pc, 0, (0,)), (nc, 0, (1,)), (nc, 0, (2,)), (nd, 1, (0, 0))):
            terms.append((p, gp, 0, res(pre, a, post + Word(tail))))
    rows, den = _combine(terms, nxi, ng)
    if any(map(any, rows[0])):
        raise ArithmeticError("Schwinger-Dyson combination has a spurious x^0 term")
    return rows[1:], den


def _reproduces_catalog(rep, residual, table, nx, ng, variant):
    """``residual`` (rows of ``rep``) equals npieces times the paired catalog residual."""
    paired = _loop_rows(CATALOG[rep.index - 1], table, nx, ng, variant)
    diff = _combine([(P_ONE, 0, 0, residual), (Poly((-len(rep.pieces),)), 0, 0, paired)], nx, ng)
    return not _nonzero_slots(diff)[1]


# ---------------------------------------------------------------------------
# check drivers
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
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


def check_loops(table: _TableBase, nx: int, ng: int, *, variant: str = "emended") -> list:
    """Residuals of all cataloged scalar equations; one result per entry."""
    out = []
    for eq in CATALOG:
        fz, bad = _nonzero_slots(_loop_rows(eq, table, nx, ng, variant))
        label = eq.template
        if variant == "emended" and eq.emended is not None:
            label += "  [emended transcription]"
        out.append(CheckResult(eq.index, label, fz is None, fz, bad))
    return out


def check_sd(table: _TableBase, nx: int, ng: int) -> list:
    """Residuals of all reparameterisation identities, plus their catalog pairing.

    The pairing is evaluated on the solved table, where both the generated
    and the catalog residual vanish, so it is implied by ``check_loops``
    and adds no term-by-term comparison of the two constructions.
    """
    out = []
    for rep in SD_DESCRIPTORS:
        res = _sd_rows(rep, table, nx, ng)
        fz, bad = _nonzero_slots(res)
        ok = fz is None
        label = str(rep)
        if ok and not _reproduces_catalog(rep, res, table, nx, ng, "emended"):
            ok = False
            label += "  (does not reproduce its catalog pairing)"
        out.append(CheckResult(rep.index, label, ok, fz, bad))
    return out
