"""First-order difference equations over a presentation, and solver verdicts.

Two shapes cover everything in scope:

* twisted equations  sigma(x) - e1*x = e2   with e1 != 0 (e1 = 1 is the
  additive torsor of e2);
* multiplicative equations  sigma(x) = e^z * x  with e, z nonzero, solved
  among nonzero elements.

Solver outcomes are deliberately three-valued: a verified solution, an
honest bounded exhaustion, or unsolvability backed by a replayable
certificate.  Bounded exhaustion is a result, not an error.
"""

from __future__ import annotations

from typing import Any

from .field import Element
from .record import record


class UnsupportedCoefficientShape(ValueError):
    """Equation coefficients fall outside the class the solver covers."""


@record(frozen=True)
class TwistedEquation:
    """sigma(x) - e1*x = e2."""

    e1: Element
    e2: Element

    def __post_init__(self):
        if self.e1.is_zero():
            raise ValueError("twisted equation requires e1 != 0")

    @staticmethod
    def torsor(target: Element) -> "TwistedEquation":
        return TwistedEquation(target.pres.one(), target)

    def holds_for(self, x: Element) -> bool:
        return x.sigma(1) - self.e1 * x == self.e2

    def __repr__(self) -> str:
        return f"sigma(x) - ({self.e1})*x = {self.e2}"


@record(frozen=True)
class MultiplicativeEquation:
    """sigma(x) = e^z * x, solutions sought among nonzero elements."""

    e: Element
    z: int

    def __post_init__(self):
        if self.z == 0:
            raise ValueError("multiplicative equation requires z != 0")
        if self.e.is_zero():
            raise ValueError("multiplicative equation requires e != 0")

    def ratio(self) -> Element:
        return self.e**self.z

    def holds_for(self, x: Element) -> bool:
        return (not x.is_zero()) and x.sigma(1) == self.ratio() * x

    def __repr__(self) -> str:
        return f"sigma(x) = ({self.e})^{self.z} * x"


@record(frozen=True)
class SearchBounds:
    """Ansatz size limits: total degree and free-generator shift window."""

    degree: int = 6
    window: int = 4

    def __post_init__(self):
        if self.degree < 0 or self.window < 0:
            raise ValueError("bounds must be nonnegative")


@record(frozen=True)
class Solution:
    witness: Element

    def __repr__(self) -> str:
        return f"Solution({self.witness})"


@record(frozen=True)
class NoSolutionWithinBounds:
    bounds: SearchBounds

    def __repr__(self) -> str:
        return f"NoSolutionWithinBounds(degree={self.bounds.degree}, window={self.bounds.window})"


@record(frozen=True)
class Unsolvable:
    certificate: Any

    def __repr__(self) -> str:
        return "Unsolvable(certificate)"


@record(frozen=True)
class Unknown:
    reason: str

    def __repr__(self) -> str:
        return f"Unknown({self.reason!r})"


SolveResult = Solution | NoSolutionWithinBounds | Unsolvable | Unknown
