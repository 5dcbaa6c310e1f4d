"""One comparison plan, printed three ways.

A scored comparison is a comparator of Figure 3 applied to one linear
difference of two intervals' endpoints, ``a*x.start + b*x.end + c*y.start +
d*y.end + constant`` (its absolute value for ``equals``).  A
:class:`ComparisonPlan` holds that linear form and fixes the comparator as one
ordered branch table over the difference ``v``: the ``rho == 0`` step, the
pre-added ``edge = lam + rho`` and the 1.0 cap on the slope are decided here
and nowhere else.  Three printers render the table:

* :func:`python_scorer` -- one ``def score(x, y)`` per predicate
  (:meth:`~repro.temporal.predicates.ScoredPredicate.compile`);
* :meth:`ComparisonPlan.numpy_expression` -- nested ``np.where``, broadcasting
  over any argument (:func:`repro.columnar.compile_vector`);
* :meth:`ComparisonPlan.sql_case` -- the SQL oracle's ``CASE``.

Python, numpy and SQLite parse the printed infix arithmetic alike, evaluate
IEEE doubles in the printed order and read every :func:`float_literal` back
exactly, so the three forms agree bit for bit.  The linear form drops zero
coefficients and folds ``±1``: exact on finite endpoints, since ``t + 0.0 ==
t`` for every non-zero ``t`` and a zero difference's sign is invisible to both
comparators.  Printed source holds fixed identifiers and float literals only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

__all__ = ["Branch", "ComparisonPlan", "float_literal", "python_scorer"]

_TINY = 2.0**-600


def float_literal(value: float) -> str:
    """A literal that Python, numpy and SQLite all read back as ``value``.

    Seventeen significant digits lie within a quarter ulp of the double, so
    even SQLite's reader gets them right; it misreads a few shortest ``repr``
    strings (5 of 100 000 uniform draws in [0, 20) with SQLite 3.40) and
    17-digit ones below about 1e-250, so a tiny value is printed as its exact
    quotient by ``2**600``.
    """
    value = float(value)
    if value != 0.0 and abs(value) < _TINY:
        return f"({value / _TINY:.16e} / {1 / _TINY:.16e})"
    return f"{value:.16e}"


class Branch(NamedTuple):
    """``v <test> bound`` scores ``value``; the last branch has no test.

    A ``value`` of ``None`` is the slope over ``rho`` away from ``bound``
    (falling from ``edge`` for equals, rising from ``lam`` for greater), capped
    at 1.0: just past ``lam`` it can round to 1.0000000000000002.
    """

    test: str | None
    bound: float
    value: float | None


@dataclass(frozen=True)
class ComparisonPlan:
    """One conjunct as a linear difference and the comparator's branch table."""

    kind: str
    coefficients: tuple[float, float, float, float]
    """Of the first variable's start and end, then the second's."""
    constant: float
    lam: float
    rho: float

    def __post_init__(self) -> None:
        numbers = (*self.coefficients, self.constant, self.lam, self.rho)
        if not all(math.isfinite(number) for number in numbers):
            raise ValueError(f"a comparison plan needs finite numbers, got {self}")

    @property
    def branches(self) -> tuple[Branch, ...]:
        """The comparator over ``v``, tested in order (``v`` is ``|d|`` for equals)."""
        lam, rho = self.lam, self.rho
        edge = lam + rho
        if self.kind == "equals":
            if rho == 0.0:
                return (Branch("<=", lam, 1.0), Branch(None, 0.0, 0.0))
            return (Branch("<=", lam, 1.0), Branch(">=", edge, 0.0), Branch(None, edge, None))
        if rho == 0.0:
            return (Branch(">", lam, 1.0), Branch(None, 0.0, 0.0))
        return (Branch("<=", lam, 0.0), Branch(">=", edge, 1.0), Branch(None, lam, None))

    def difference(self, operands: Sequence[str], absolute: str) -> str:
        """``v`` over the four endpoint operands, wrapped in ``absolute`` for equals.

        Zero coefficients are dropped, ``±1`` is folded and the term order is
        kept, so the sum runs in the order of the full endpoint form.
        """
        text = ""
        for coefficient, operand in zip(self.coefficients, operands):
            if coefficient != 0.0:
                magnitude = abs(coefficient)
                term = operand if magnitude == 1.0 else f"{float_literal(magnitude)}*{operand}"
                sign = "-" if coefficient < 0.0 else "+"
                if text:
                    text = f"{text} {sign} {term}"
                else:
                    text = f"-{term}" if sign == "-" else term
        if not text:
            text = float_literal(self.constant)
        elif self.constant != 0.0:
            text += f" {'-' if self.constant < 0.0 else '+'} {float_literal(abs(self.constant))}"
        return f"{absolute}({text})" if self.kind == "equals" else f"({text})"

    def test(self, branch: Branch, v: str) -> str:
        """A tested branch's condition over ``v``."""
        return f"{v} {branch.test} {float_literal(branch.bound)}"

    def slope(self, branch: Branch, v: str) -> str:
        """The uncapped slope of a slope branch over ``v``."""
        bound = float_literal(branch.bound)
        rise = f"{bound} - {v}" if self.kind == "equals" else f"{v} - {bound}"
        return f"({rise}) / {float_literal(self.rho)}"

    def value(self, branch: Branch, v: str, minimum: str) -> str:
        """A branch's score; the slope is capped with the ``minimum`` function."""
        if branch.value is None:
            return f"{minimum}({self.slope(branch, v)}, {float_literal(1.0)})"
        return float_literal(branch.value)

    def numpy_expression(self, v: str) -> str:
        """The branch table as nested ``np.where`` over a prepared ``v``."""
        *tests, last = self.branches
        expression = self.value(last, v, "np.minimum")
        for branch in reversed(tests):
            value = self.value(branch, v, "np.minimum")
            expression = f"np.where({self.test(branch, v)}, {value}, {expression})"
        return expression

    def sql_case(self, operands: Sequence[str]) -> str:
        """The branch table as one SQL ``CASE`` over four endpoint columns."""
        v = self.difference(operands, "ABS")
        *tests, last = self.branches
        whens = " ".join(
            f"WHEN {self.test(branch, v)} THEN {self.value(branch, v, 'MIN')}" for branch in tests
        )
        return f"(CASE {whens} ELSE {self.value(last, v, 'MIN')} END)"


def python_scorer(plans: Sequence[ComparisonPlan]) -> str:
    """Source of ``def score(x, y)``: the conjunction of ``plans`` as one function.

    The running minimum starts at 1.0, which is also the slope's cap (a slope
    replaces ``best`` only when below it); a branch scoring 0 returns at once,
    and one scoring 1.0 cannot lower the minimum.
    """
    lines = ["def score(x, y):", "    best = 1.0"]
    for plan in plans:
        lines.append(f"    v = {plan.difference(('x.start', 'x.end', 'y.start', 'y.end'), 'abs')}")
        for position, branch in enumerate(plan.branches):
            if branch.test is None:
                lines.append("    else:")
            else:
                lines.append(f"    {'elif' if position else 'if'} {plan.test(branch, 'v')}:")
            if branch.value is None:
                slope = plan.slope(branch, "v")
                lines += [f"        s = {slope}", "        if s < best:", "            best = s"]
            elif branch.value == 0.0:
                lines.append("        return 0.0")
            else:
                lines.append("        pass")
    lines.append("    return best")
    return "\n".join(lines)
