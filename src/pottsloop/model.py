"""What to solve: the model, its coupling and truncations, and the integer weights of a propagator.

Solved coefficients are polynomials in c with nonnegative integer
coefficients: each one counts spin-decorated triangulations where every
unequal-spin adjacency carries one factor of c.  Both coefficient domains
store one integer per slot and run one integer recursion (``recursion``).
The slot (w, n) spends E = (|w| + 3n)/2 propagators, and a split or a
triangle removal uses up exactly one of them, weighted b between equal
letters and a between unequal ones (``_weights``).  At symbolic c,
(b, a) = (1, 2**64): the integer is the polynomial packed base 2**64 per
c-power.  At a rational c0 = a/b in lowest terms (b > 0) the integer is
b**E * p_w^(n), so the recursion never divides and pays no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .poly import Poly
from .record import FrozenRecord
from .ring import _B


class TruncationError(Exception):
    """A coefficient outside the solved region was requested."""


class ModelSpec(FrozenRecord):
    """What to solve: model kind, coupling ("symbolic", or a rational parsed once into a Fraction) and truncations."""

    kind: str = "potts3"  # "potts3" | "pure-gravity"
    c: Union[str, Fraction, int] = "symbolic"
    ng: int = 4
    ltarget: int = 4

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        if self.kind not in ("potts3", "pure-gravity"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.ng < 0 or self.ltarget < 0:
            raise ValueError("truncation orders must be nonnegative")
        if self.c != "symbolic":
            try:
                c0 = Fraction(self.c)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"coupling {self.c!r} is neither 'symbolic' nor a rational") from None
            # propagator normalisation 1 + c - 2c^2 = (1-c)(1+2c) must not vanish
            if self.kind == "potts3" and 1 + c0 - 2 * c0 * c0 == 0:
                raise ValueError(f"coupling c = {c0} is a pole of the propagator (c in {{1, -1/2}})")
            object.__setattr__(self, "c", c0)

    @property
    def symbolic(self) -> bool:
        return self.c == "symbolic"

    @property
    def nletters(self) -> int:
        return 3 if self.kind == "potts3" else 1

    def const(self, p: Poly) -> Poly:
        """A c-polynomial constant of an exact check, at this coupling.

        ``p`` itself at symbolic c, the constant p(c0) at a rational c0.
        Every check takes its constants here, so they always match the
        coupling its table was solved at.
        """
        return p if self.symbolic else Poly.constant(p.evaluate(self.c))


def _weights(spec: ModelSpec) -> tuple:
    """(b, a): integer weights of an equal- and an unequal-letter propagator.

    A rational c0 = a/b in lowest terms gives (b, a); symbolic c gives
    (1, 2**_B), a shift by one packed c-power digit.
    """
    return (1, 1 << _B) if spec.symbolic else (spec.c.denominator, spec.c.numerator)
