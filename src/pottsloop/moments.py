"""Moment constants, their recurrences, and the transcribed coefficients of the quintic curve.

The moment constants are series in g read off a solved table
(``compute_moments``); three exact identities tie them together
(``check_recurrences``).  The shifted resolvent satisfies a degree-five
algebraic equation R = sum_k f_k(x) y^k = 0 whose x-polynomial
coefficients f_0..f_5 are transcribed verbatim in ``build_curve``, with
four moment constants substituted; ``curve`` checks that its residual
vanishes.
"""

from __future__ import annotations

from typing import Optional

from .model import ModelSpec
from .poly import Poly
from .record import FrozenRecord, Record
from .series import XLaurent
from .tables import _TableBase


class MomentSet(FrozenRecord):
    """The moment constants entering the curve and its recurrences.

    ``spec`` is the model the moments were read at; every check built from
    them takes its c-constants from it (:meth:`ModelSpec.const`).
    """

    p1: XLaurent
    p11: XLaurent
    p12: XLaurent
    p112: XLaurent
    p012: XLaurent
    p1122: XLaurent
    p1120: XLaurent
    p1202: XLaurent
    p1212: XLaurent
    p0121: XLaurent
    spec: ModelSpec = ModelSpec()

    @property
    def ng(self) -> int:
        return self.p1.ng

    def const(self, *coeffs: int) -> XLaurent:
        """The c-polynomial with these ascending coefficients as a g-series constant."""
        return XLaurent.constant(self.spec.const(Poly(coeffs)), 0, self.ng)


MOMENT_LABELS = tuple(f[1:] for f in MomentSet._fields if f != "spec")  # field p<label>: the word <label>


def moment_edge(ng: int) -> int:
    """The lazy-table edge the moments read to g^ng: the longest of ``MOMENT_LABELS`` plus ng."""
    return ng + 4


def compute_moments(table: _TableBase, ng: Optional[int] = None) -> MomentSet:
    """Read every moment constant off the solved table.

    Insufficient truncation surfaces as TruncationError from the table,
    carrying the required depth.
    """
    return MomentSet(*(table.gseries(label, ng) for label in MOMENT_LABELS), table.spec)


# ---------------------------------------------------------------------------
# moment recurrences
# ---------------------------------------------------------------------------


class RecurrenceReport(Record):
    name: str
    passed: bool
    first_bad_order: Optional[int] = None
    bad_orders: int = 0  # failing g-orders

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"  first failing g-order {self.first_bad_order}"
        return f"[{status}] {self.name}{extra}"


def check_recurrences(m: MomentSet) -> list:
    """The three exact series identities tying the moment constants together:

        g (1 + c - 2c^2) p11            = (1 - c) p1
        p12 - g (1 + c - 2c^2) p112     = c p11
        c (p1212 + p0121 - p1122 - p1120) = -(1 + c - 2c^2)(p12 - p1^2)
    """
    D = m.const(1, 1, -2)
    cg = m.const(0, 1)
    one_minus_c = m.const(1, -1)

    r1 = (D * m.p11).shift_g(1) - one_minus_c * m.p1
    r2 = m.p12 - (D * m.p112).shift_g(1) - cg * m.p11
    r3 = cg * (m.p1212 + m.p0121 - m.p1122 - m.p1120) + D * (m.p12 - m.p1 * m.p1)

    out = []
    for name, r in (
        ("g D p11 = (1-c) p1", r1),
        ("p12 - g D p112 = c p11", r2),
        ("c (p1212 + p0121 - p1122 - p1120) = -D (p12 - p1^2)", r3),
    ):
        fz = r.first_nonzero()
        out.append(RecurrenceReport(name, fz is None, None if fz is None else fz[1], _bad_slots(r)))
    return out


def _bad_slots(r: XLaurent) -> int:
    """The nonzero slots of a residual series."""
    return sum(not v.is_zero() for _, row in r.items() for v in row)


# ---------------------------------------------------------------------------
# the quintic curve coefficients
# ---------------------------------------------------------------------------


def build_curve(m: MomentSet) -> tuple:
    """Transcription of the six curve coefficients, term by term: (f0, (f1, ..., f5)).

    The coefficients are x-polynomials of degree six, so they are built at
    that fixed truncation.  A moment variant selects the word supplying the
    fourth moment constant; the source is ambiguous between the cyclically
    distinct words 1202 and 1212, so both are accepted and the residual
    check adjudicates.  Only f0 reads that constant, so it comes as a
    function of the variant, ``f0(variant)``, and f1..f5 serve every
    variant.  Every c-constant is taken at the coupling the moments were
    read at, and the g-order is theirs (``m.ng``).
    """
    NX, ng = 6, m.ng

    cp = m.const
    x = XLaurent.x_power(1, NX, ng)
    g = XLaurent(0, [(0, 1)], 0, ng)
    D = cp(1, 1, -2)  # 1 + c - 2c^2, also equal to -(2c^2 - c - 1)
    cm1 = cp(-1, 1)  # c - 1
    c2p1 = cp(1, 2)  # 2c + 1
    p1, p12, p012 = m.p1, m.p12, m.p012

    f5 = cp(-4) * cm1**8 * g**3 * (cp(0, 2) * x + x) ** 6

    f4 = (
        cp(-1) * cm1**6 * g**2 * (x + cp(0, 2) * x) ** 4
        * (
            cp(4) * D**2 * g**2
            + cp(4) * cm1 * c2p1 * cp(1, 5) * g * x
            - cp(0, 18, 19) * x**2  # c (18 + 19 c)
        )
    )

    f3 = (
        cp(2) * cm1**4 * c2p1**2 * g * x**3
        * (
            cp(2) * D**4 * g**3 * p1 * x**3
            + cp(0, 6) * D**3 * g**3
            + x**3 * (cm1**3 * c2p1**3 * cp(2, 3) * g**2 - cp(0, 0, 13, 31, 12))
            + cm1 * c2p1 * g * x**2 * (cp(0, 9, 48, 51) - cp(2) * D**3 * g**2)
            + cp(0, 3, -9) * D**2 * g**2 * x  # -3c (3c - 1) D^2 g^2 x
        )
    )

    f2 = (
        cp(0, -1) * D**2 * x**2
        * (
            cp(2) * cm1**4 * c2p1**2 * g**3 * x**4
            * (cp(4) * cm1 * c2p1 * g * p12 + cp(13, 12) * p1)
            + cp(2) * x**4 * (cm1**3 * c2p1 * cp(9, 20, 8) * g**2 - cp(0, 0, 6))
            - cm1**2 * g**2 * x**2 * (cp(0, 15, 114, 159) - cp(10) * D**3 * g**2)
            + cp(13) * cm1**4 * cp(0, 1) * c2p1**2 * g**4
            - cp(4) * cm1**3 * cp(0, 1) * c2p1 * cp(7, 8) * g**3 * x
            + cp(2) * cm1 * g * x**3
            * (cp(2) * cp(2, 1) * cm1**3 * (c2p1 * g) ** 2 + cp(0, 13, 52, 43))
        )
    )

    f1 = (
        cp(0, -2) * cm1 * c2p1**2 * x
        * (
            cm1**3 * c2p1 * g**2 * x**5
            * (
                cp(0, 2) * cm1 * g
                * (cp(2) * D * g * p012 - cp(9, 12) * p12)
                + p1 * (cm1**3 * (c2p1 * g) ** 2 - cp(0, 27, 9))
            )
            + cp(3) * cm1**4 * cp(0, 0, 1) * c2p1 * g**4
            - cp(3) * cm1**3 * cp(0, 0, 1) * cp(4, 7) * g**3 * x
            + x**4
            * (
                cp(0, 0, 6) * c2p1 * cm1**3 * g**2
                - cp(0, 0, 6, 6)
                + c2p1**3 * cm1**6 * g**4
            )
            + cp(0, 3) * cm1 * g * x**3 * (c2p1 * cp(3, 5) * cm1**3 * g**2 + cp(0, 5, 13))
            - cp(0, 2) * cm1**2 * g**2 * x**2 * (cp(2) * cm1**3 * (c2p1 * g) ** 2 - cp(0, 3))
            + cm1**2 * g * x**5 * (cp(1, 1) * cm1**3 * (c2p1 * g) ** 2 + cp(0, -13, -18, 7))
        )
    )

    def f0(variant: str) -> XLaurent:
        if variant not in ("1202", "1212"):
            raise ValueError("moment variant must be '1202' or '1212'")
        p4th = m.p1202 if variant == "1202" else m.p1212
        return (
            cp(0, 0, -1)
            * (
                cm1**2 * g * x**6
                * (
                    cp(4) * cm1 * c2p1 * g
                    * (
                        (D**3 * g**2 + cp(0, 9, 31, 18)) * p12
                        + cm1 * cp(0, 1) * c2p1 * g
                        * (cp(2) * cm1 * c2p1 * g * p4th + cp(5, 8) * p012)
                    )
                    + cp(3) * D**4 * g**3 * p1 * p1
                    + cp(2) * p1 * (cp(2, 3) * D**3 * g**2 + cp(0, 18, 72, 80, -8))
                )
                + c2p1**2
                * (
                    cm1**4 * cp(0, 0, 1) * g**4
                    - cp(0, 0, 6) * cm1**3 * g**3 * x
                    + x**4 * (cp(0, 0, -12) + c2p1**2 * cm1**6 * g**4 - cp(0, 6) * c2p1 * cm1**3 * g**2)
                    - cm1**2 * x**6 * (cm1**2 * cp(3, 8, 1) * g**2 + cp(0, 12))
                    - cp(2) * cm1**2 * c2p1 * g * x**5 * (c2p1 * cm1**3 * g**2 + cp(0, 2))
                    + cp(0, 4) * cm1 * g * x**3 * (cp(2) * c2p1 * cm1**3 * g**2 + cp(0, 1))
                    - cp(0, 1) * cm1**2 * g**2 * x**2 * (cp(2) * cm1**3 * c2p1 * g**2 - cp(0, 9))
                )
            )
        )

    return f0, (f1, f2, f3, f4, f5)
