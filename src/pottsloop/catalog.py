"""The catalog of scalar loop equations and the reparameterisations that re-derive it, as data.

Every constraint on the fixed-spin disk amplitude is a linear/quadratic
relation among amplitude series

    phi_label(x) = sum_k x^k p(label 0^k),

the expectation of a boundary word followed by a block of 0s conjugate to
the expansion variable.  ``CATALOG`` transcribes the printed equations
verbatim: each entry is a list of terms (coefficient polynomial in c) *
g^a * x^b * [scalar moment] * product of (shifted, optionally
reversal-symmetrised) amplitudes.  A residual is the term sum, which must
vanish identically on the solved table; ``loopcat`` evaluates it and
re-derives each entry from a reparameterisation.
"""

from __future__ import annotations

from typing import Optional

from .record import FrozenRecord

# coefficient polynomials in c, ascending powers
_ONE = (1,)
_PC = (1, 1)  # 1 + c
_ND = (-1, -1, 2)  # -(1 + c - 2c^2)
_ND2 = (-2, -2, 4)  # -2(1 + c - 2c^2)
_NC = (0, -1)  # -c
_NC2 = (0, -2)  # -2c


class Amp(FrozenRecord):
    """The amplitude series sum_k x^k p(label a^(k+delta) post), a = ``letter``.

    Catalog entries keep the 0-block and an empty ``post``; the generated
    identities also read other blocks and trailing words.
    """

    label: str
    delta: int = 0  # power of the x0 coefficient shift applied
    sym: bool = False  # average with the reversed label
    letter: int = 0  # the block letter a
    post: str = ""  # the word after the block


class Term(FrozenRecord):
    coeff: tuple  # integer coefficients of the c-polynomial
    amps: tuple  # one or two Amp factors
    p_label: Optional[str] = None  # scalar moment factor
    g_power: int = 0
    x_power: int = 0


class LoopEquation(FrozenRecord):
    """One cataloged constraint.

    ``terms`` is the verbatim transcription of the source.  For two entries
    the transcribed subscripts are inconsistent with the reparameterisation
    identity generated at the same position (the letter 2 appears where 0
    belongs, in three amplitude labels); the corrected reading, forced term
    by term by the generator in ``loopcat``, is kept in ``emended`` and used
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


CATALOG = (
    LoopEquation(1, "x0...x0", (
        _t(_PC, Amp("", 1)),
        _t(_ND, Amp(""), Amp(""), x=1),
        _t(_ND, Amp("", 2), g=1),
        _t(_NC2, Amp("1")),
    )),
    LoopEquation(2, "x1 x0...x0 x1", (
        _t(_PC, Amp("101")),
        _t(_ND, Amp("1"), Amp("1"), x=1),
        _t(_ND, Amp("1001"), g=1),
        _t(_NC, Amp("111")),
        _t(_NC, Amp("121")),
    )),
    LoopEquation(3, "x1 x0...x0 (+ reverse)", (
        _t(_PC, Amp("1", 1)),
        _t(_ND, Amp(""), Amp("1"), x=1),
        _t(_ND, Amp("1", 2), g=1),
        _t(_NC, Amp("11")),
        _t(_NC, Amp("12")),
    )),
    LoopEquation(4, "x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, Amp("12", 1)),
        _t(_ND, Amp(""), Amp("12"), x=1),
        _t(_ND, Amp("12", 2), g=1),
        _t(_NC, Amp("121")),
        _t(_NC, Amp("122", sym=True)),
    )),
    LoopEquation(5, "x1 x2 x1 x0...x0 (+ reverse)", (
        _t(_PC, Amp("121", 1)),
        _t(_ND, Amp(""), Amp("121"), x=1),
        _t(_ND, Amp("121", 2), g=1),
        _t(_NC, Amp("1212")),
        _t(_NC, Amp("1121", sym=True)),
    )),
    LoopEquation(6, "x1 x0 x2 x0...x0 (+ reverse)", (
        _t(_PC, Amp("102", 1)),
        _t(_ND, Amp(""), Amp("102"), x=1),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("102", 2), g=1),
        _t(_NC, Amp("1102", sym=True)),
        _t(_NC, Amp("1201", sym=True)),
    )),
    LoopEquation(7, "x1 x0 x1 x0...x0 (+ reverse)", (
        _t(_PC, Amp("101", 1)),
        _t(_ND, Amp(""), Amp("101"), x=1),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("101", 2), g=1),
        _t(_NC, Amp("1101", sym=True)),
        _t(_NC, Amp("1202", sym=True)),
    )),
    LoopEquation(8, "x0 x1 x2 x0...x0 (+ reverse)", (
        _t(_PC, Amp("12", 2)),
        _t(_ND, Amp(""), Amp("12", 1), x=1),
        _t(_ND, Amp("12")),
        _t(_ND, Amp("12", 3), g=1),
        _t(_NC, Amp("1201", sym=True)),
        _t(_NC, Amp("1202", sym=True)),
    )),
    LoopEquation(9, "x1 x2 x0...x0 x0 (+ reverse)", (
        _t(_PC, Amp("12", 2)),
        _t(_ND, Amp("", 1), Amp("12"), x=1),
        _t(_ND, Amp("12")),
        _t(_ND, Amp("12", 3), g=1),
        _t(_NC, Amp("112", 1, sym=True)),
        _t(_NC, Amp("121", 1)),
    )),
    LoopEquation(10, "x2...x2", (
        _t(_ONE, Amp("1")),
        _t(_ND, Amp("11"), g=1),
        _t(_NC, Amp("", 1)),
    )),
    LoopEquation(11, "x1 x2...x2 x1", (
        _t(_PC, Amp("121")),
        _t(_ND, Amp("1221"), g=1),
        _t(_NC, Amp("111")),
        _t(_NC, Amp("101")),
    )),
    LoopEquation(12, "x1 x2...x2 (+ reverse)", (
        _t(_PC, Amp("12")),
        _t(_ND, Amp("112", sym=True), g=1),
        _t(_NC, Amp("11")),
        _t(_NC, Amp("1", 1)),
    )),
    LoopEquation(13, "x0 x2...x2 (+ reverse)", (
        _t(_PC, Amp("11")),
        _t(_ND, Amp("")),
        _t(_ND, Amp("111"), g=1),
        _t(_NC, Amp("12")),
        _t(_NC, Amp("1", 1)),
    )),
    LoopEquation(14, "x1 x1 x2...x2 (+ reverse)", (
        _t(_PC, Amp("112", sym=True)),
        _t(_ND, Amp("1122"), g=1),
        _t(_NC, Amp("111")),
        _t(_NC, Amp("11", 1)),
    )),
    LoopEquation(15, "x2 x1 x2...x2 (+ reverse)", (
        _t(_PC, Amp("102")),
        _t(_ND, Amp("1102", sym=True), g=1),
        _t(_NC, Amp("101")),
        _t(_NC, Amp("1", 2)),
    )),
    LoopEquation(16, "x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, Amp("101")),
        _t(_ND, Amp(""), p="1"),
        _t(_ND, Amp("1101", sym=True), g=1),
        _t(_NC, Amp("102")),
        _t(_NC, Amp("1", 2)),
    )),
    LoopEquation(17, "x1 x0 x2...x2 (+ reverse)", (
        _t(_PC, Amp("121")),
        _t(_ND, Amp(""), p="1"),
        _t(_ND, Amp("1121", sym=True), g=1),
        _t(_NC, Amp("112", sym=True)),
        _t(_NC, Amp("12", 1)),
    )),
    LoopEquation(18, "x0 x1 x2...x2 x0 (+ reverse)", (
        _t(_PC, Amp("1222", sym=True)),
        _t(_ND2, Amp("12")),
        _t(_ND, Amp("12222", sym=True), g=1),
        _t(_NC, Amp("1212")),
        _t(_NC, Amp("1202", sym=True)),
    )),
    LoopEquation(19, "x1 x2...x2 x0 x0 (+ reverse)", (
        _t(_PC, Amp("1222", sym=True)),
        _t(_ND, Amp("12")),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("12222", sym=True), g=1),
        _t(_NC, Amp("1122")),
        _t(_NC, Amp("1102", sym=True)),
    )),
    LoopEquation(20, "x0 x2...x2 x0 x2 (+ reverse)", (
        _t(_PC, Amp("1211", sym=True)),
        _t(_ND, Amp("12")),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("12111", sym=True), g=1),
        _t(_NC, Amp("1001")),
        _t(_NC, Amp("1201", sym=True)),
    ), emended=(
        _t(_PC, Amp("1011", sym=True)),
        _t(_ND, Amp("10")),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("10111", sym=True), g=1),
        _t(_NC, Amp("1001")),
        _t(_NC, Amp("1201", sym=True)),
    )),
    LoopEquation(21, "x0 x2 x0 x2...x2 (+ reverse)", (
        _t(_PC, Amp("1211", sym=True)),
        _t(_ND, Amp("12")),
        _t(_ND, Amp(""), p="12"),
        _t(_ND, Amp("12111", sym=True), g=1),
        _t(_NC, Amp("1202", sym=True)),
        _t(_NC, Amp("101", 1)),
    ), emended=(
        _t(_PC, Amp("1011", sym=True)),
        _t(_ND, Amp("10")),
        _t(_ND, Amp(""), p="12"),
        _t(_ND, Amp("10111", sym=True), g=1),
        _t(_NC, Amp("1202", sym=True)),
        _t(_NC, Amp("101", 1)),
    )),
    LoopEquation(22, "x0 x2...x2 x1 x0 (+ reverse)", (
        _t(_PC, Amp("1222", sym=True)),
        _t(_ND2, Amp("12")),
        _t(_ND, Amp("12222", sym=True), g=1),
        _t(_NC, Amp("1212")),
        _t(_NC, Amp("1202", sym=True)),
    )),
    LoopEquation(23, "x0 x0 x1 x2...x2 (+ reverse)", (
        _t(_PC, Amp("1222", sym=True)),
        _t(_ND, Amp("12")),
        _t(_ND, Amp("1"), p="1"),
        _t(_ND, Amp("12222", sym=True), g=1),
        _t(_NC, Amp("1221")),
        _t(_NC, Amp("112", 1, sym=True)),
    )),
)
