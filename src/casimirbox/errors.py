"""Exception types shared across the package, the default tolerance and
term budget, the checks of a tolerance and a term budget, and the range of
accepted lengths."""

from __future__ import annotations

import math


class CasimirBoxError(Exception):
    """Base class for errors raised by this package."""


class ConvergenceError(CasimirBoxError):
    """A series could not be driven below the requested tolerance within
    the allowed summation budget."""

    def __init__(self, series: str, reached: float, requested: float, message: str | None = None):
        self.series = series
        self.reached = reached
        self.requested = requested
        super().__init__(
            message or f"{series}: tail bound reached {reached:.3e}, requested {requested:.3e}"
        )


def budget_error(series: str, tol: float, need: str, budget: int) -> ConvergenceError:
    """ConvergenceError for a series stopped by its term budget.

    `need` states the terms used or the points needed, as in
    "lattice_g: tolerance 1.000e-10 not reached after 101 terms, budget 100".
    """
    return ConvergenceError(
        series, reached=math.inf, requested=tol,
        message=f"{series}: tolerance {tol:.3e} {need}, budget {budget}",
    )


#: Default relative tolerance of every series, the CLI's --tol included.
DEFAULT_TOL = 1e-10

#: Default cap on the lattice points or terms of any one series: the mode
#: sums (direct points or dual terms), E0's G and R passes and the CLI's
#: --max-shell.  The direct and image lattice sums hold one chunk of at most
#: 15 000 points at a time, so for them it bounds the time, not the memory.
DEFAULT_BUDGET = 5_000_000

#: Accepted lengths [m], box sides and plate separations alike.  Within it
#: E0, the zero-temperature force and the plates' F and P stay finite: the
#: fourth powers stay in the float range, and 2 a kT, whose inverse is the
#: plates' reduced temperature, does not underflow to 0 at the smallest
#: positive kT (below 8e-27 m it does, for T near 1e-300 K).
MIN_LENGTH = 1e-26
MAX_LENGTH = 1e50

#: Largest accepted relative tolerance; a looser one would stop a series
#: while its tail still changes the leading digits.
MAX_TOL = 1e-3


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol <= MAX_TOL.

    A NaN tolerance fails every `tail <= tol * ...` comparison, so a
    series given one would never stop.
    """
    if not (math.isfinite(tol) and 0.0 < tol <= MAX_TOL):
        raise ValueError(f"tol must be a finite number in (0, {MAX_TOL:g}], got {tol!r}")


def check_budget(budget: int) -> None:
    """Raise ValueError unless budget is an int >= 1 (a bool is not).

    A NaN budget fails every `points > budget` comparison, so a series
    given one would run unbounded.
    """
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
