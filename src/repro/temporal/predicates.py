"""Scored and Boolean temporal predicates.

A temporal predicate is a conjunction of comparisons between linear endpoint terms
(see :mod:`repro.temporal.terms`).  Its *Boolean* interpretation evaluates every
comparison exactly (strict ``>`` / exact ``=``); its *scored* interpretation
replaces each comparison with the ``equals`` / ``greater`` approximation comparator
of Figure 3 and combines them with ``min``, following the paper's scored variants
of the Allen algebra (Figure 2) and the extended predicates (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .comparators import (
    ComparatorParams,
    PredicateParams,
    equals_score,
    equals_score_range,
    greater_score,
    greater_score_range,
)
from .comparison_plan import ComparisonPlan, python_scorer
from .interval import Interval
from .terms import EndpointVar, Term, constant, end_of, length_of, start_of

__all__ = [
    "Comparison",
    "ScoredPredicate",
    "before",
    "equals",
    "meets",
    "overlaps",
    "contains",
    "starts",
    "finished_by",
    "just_before",
    "shift_meets",
    "sparks",
    "ALLEN_PREDICATES",
    "predicate_by_name",
]

_X, _Y = "x", "y"


@dataclass(frozen=True)
class Comparison:
    """One conjunct of a predicate: ``left OP right`` with ``OP`` in {equals, greater}.

    ``kind`` is ``'equals'`` (degree of equality of the two terms) or ``'greater'``
    (degree to which ``left`` exceeds ``right``).  ``params_override`` replaces the
    predicate-level :class:`ComparatorParams` for this conjunct only; the paper uses
    this for ``justBefore``, whose equality tolerance is the average interval
    length regardless of the global parameter set.
    """

    kind: str
    left: Term
    right: Term
    params_override: ComparatorParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("equals", "greater"):
            raise ValueError(f"comparison kind must be 'equals' or 'greater', got {self.kind!r}")

    # ------------------------------------------------------------------ params
    def comparator_params(self, params: PredicateParams) -> ComparatorParams:
        """Effective ``(lambda, rho)`` for this conjunct under a parameter set."""
        if self.params_override is not None:
            return self.params_override
        return params.equals if self.kind == "equals" else params.greater

    # -------------------------------------------------------------- evaluation
    def score(self, assignment: Mapping[str, Interval], params: PredicateParams) -> float:
        """Scored evaluation on a concrete variable assignment."""
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        cp = self.comparator_params(params)
        if self.kind == "equals":
            return equals_score(a, b, cp)
        return greater_score(a, b, cp)

    def holds(self, assignment: Mapping[str, Interval]) -> bool:
        """Boolean evaluation.

        Standard comparisons use exact equality / strict inequality.  A
        ``params_override`` is part of the predicate's *definition* (e.g.
        ``justBefore`` tolerates a gap of up to the average interval length), so its
        ``lambda`` is honoured here as well; the scoring parameter set is not.
        """
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        lam = self.params_override.lam if self.params_override is not None else 0.0
        if self.kind == "equals":
            return abs(a - b) <= lam
        return a - b > lam

    def score_range(
        self,
        domains: Mapping[EndpointVar, tuple[float, float]],
        params: PredicateParams,
    ) -> tuple[float, float]:
        """Exact score range when every endpoint lies in the given box.

        The comparator only depends on the difference ``left - right``, which is a
        linear term whose range over a box follows from interval arithmetic; the
        comparator image over that range is exact (see
        :mod:`repro.temporal.comparators`).
        """
        diff = self.left - self.right
        d_min, d_max = diff.bounds(domains)
        cp = self.comparator_params(params)
        if self.kind == "equals":
            return equals_score_range(d_min, d_max, cp)
        return greater_score_range(d_min, d_max, cp)

    def plan(self, params: PredicateParams, first_var: str, second_var: str) -> ComparisonPlan:
        """This conjunct's :class:`ComparisonPlan` over two variables' endpoints."""
        endpoints = [(var, end) for var in (first_var, second_var) for end in ("start", "end")]
        slot = {endpoint: position for position, endpoint in enumerate(endpoints)}
        diff = self.left - self.right
        coefficients = [0.0, 0.0, 0.0, 0.0]
        for ev, coeff in diff.coefficients:
            key = (ev.var, ev.endpoint)
            if key not in slot:
                raise ValueError(
                    f"predicate references variable {ev.var!r}, expected "
                    f"{first_var!r} or {second_var!r}"
                )
            coefficients[slot[key]] += coeff
        cp = self.comparator_params(params)
        return ComparisonPlan(self.kind, tuple(coefficients), diff.constant, cp.lam, cp.rho)

    def variables(self) -> set[str]:
        """Query variables referenced by either side."""
        return self.left.variables() | self.right.variables()

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        """Return a copy with query-variable names substituted."""
        return replace(
            self,
            left=_rename_term(self.left, mapping),
            right=_rename_term(self.right, mapping),
        )


def _rename_term(term: Term, mapping: Mapping[str, str]) -> Term:
    coeffs = tuple(
        (EndpointVar(mapping.get(ev.var, ev.var), ev.endpoint), c)
        for ev, c in term.coefficients
    )
    return Term(coeffs, term.constant)


@dataclass(frozen=True)
class ScoredPredicate:
    """A named conjunction of :class:`Comparison` objects over variables ``x, y``.

    By convention a binary predicate is written over the canonical variable names
    ``'x'`` (left operand) and ``'y'`` (right operand); when the predicate is
    attached to a query edge the variables are renamed to the edge's vertices.
    """

    name: str
    comparisons: tuple[Comparison, ...]
    params: PredicateParams

    # -------------------------------------------------------------- evaluation
    def score(self, x: Interval, y: Interval) -> float:
        """Scored evaluation: ``min`` over the conjunct scores."""
        assignment = {_X: x, _Y: y}
        return min(c.score(assignment, self.params) for c in self.comparisons)

    def holds(self, x: Interval, y: Interval) -> bool:
        """Boolean evaluation: conjunction of the exact comparisons."""
        assignment = {_X: x, _Y: y}
        return all(c.holds(assignment) for c in self.comparisons)

    def score_range(
        self, domains: Mapping[EndpointVar, tuple[float, float]]
    ) -> tuple[float, float]:
        """Per-conjunct-exact score range over endpoint boxes, combined with min.

        The lower bound is exact only when the conjunct minima can be attained
        simultaneously, so in general this is a valid (possibly loose) relaxation;
        for the upper bound the same caveat applies.  The branch-and-bound solver
        tightens both when needed.
        """
        lo = 1.0
        hi = 1.0
        for comparison in self.comparisons:
            c_lo, c_hi = comparison.score_range(domains, self.params)
            lo = min(lo, c_lo)
            hi = min(hi, c_hi)
        return lo, hi

    def with_params(self, params: PredicateParams) -> "ScoredPredicate":
        """Return a copy using a different parameter set (overrides are preserved)."""
        return replace(self, params=params)

    def comparison_plans(
        self, first_var: str = _X, second_var: str = _Y
    ) -> tuple[ComparisonPlan, ...]:
        """One :class:`ComparisonPlan` per conjunct, in conjunct order.

        The only derivation of the conjuncts' linear forms: the scalar
        :meth:`compile`, the vector scorer, the threshold boxes and the SQL
        oracle all read these plans.
        """
        return tuple(c.plan(self.params, first_var, second_var) for c in self.comparisons)

    def compile(self, first_var: str = _X, second_var: str = _Y):
        """Return a fast scorer ``f(x_interval, y_interval) -> float``.

        One generated function per predicate (:func:`python_scorer`): each
        conjunct's branch table inlined in conjunct order, with the running
        ``min`` and its stop at 0.  It is the hot path of the local join and
        of the naive oracle.  ``first_var``/``second_var`` name the
        predicate's two variables (``x``/``y`` unless the predicate was
        renamed).
        """
        namespace: dict[str, object] = {}
        exec(python_scorer(self.comparison_plans(first_var, second_var)), namespace)
        return namespace["score"]

    def rename(self, x: str, y: str) -> "ScoredPredicate":
        """Return a copy whose canonical variables are renamed to ``x`` and ``y``."""
        mapping = {_X: x, _Y: y}
        return replace(self, comparisons=tuple(c.rename(mapping) for c in self.comparisons))

    def variables(self) -> set[str]:
        """Query variables referenced by the predicate."""
        result: set[str] = set()
        for comparison in self.comparisons:
            result |= comparison.variables()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScoredPredicate({self.name!r}, {len(self.comparisons)} comparisons)"


# --------------------------------------------------------------------- factories
def before(params: PredicateParams) -> ScoredPredicate:
    """``before(x, y)``: x ends before y starts; scored as greater(start(y), end(x))."""
    return ScoredPredicate(
        "before",
        (Comparison("greater", start_of(_Y), end_of(_X)),),
        params,
    )


def equals(params: PredicateParams) -> ScoredPredicate:
    """``equals(x, y)``: same start and same end."""
    return ScoredPredicate(
        "equals",
        (
            Comparison("equals", start_of(_X), start_of(_Y)),
            Comparison("equals", end_of(_X), end_of(_Y)),
        ),
        params,
    )


def meets(params: PredicateParams) -> ScoredPredicate:
    """``meets(x, y)``: y starts exactly when x ends."""
    return ScoredPredicate(
        "meets",
        (Comparison("equals", end_of(_X), start_of(_Y)),),
        params,
    )


def overlaps(params: PredicateParams) -> ScoredPredicate:
    """``overlaps(x, y)``: x starts first, they intersect, y ends last."""
    return ScoredPredicate(
        "overlaps",
        (
            Comparison("greater", start_of(_Y), start_of(_X)),
            Comparison("greater", end_of(_X), start_of(_Y)),
            Comparison("greater", end_of(_Y), end_of(_X)),
        ),
        params,
    )


def contains(params: PredicateParams) -> ScoredPredicate:
    """``contains(x, y)``: x strictly contains y."""
    return ScoredPredicate(
        "contains",
        (
            Comparison("greater", start_of(_Y), start_of(_X)),
            Comparison("greater", end_of(_X), end_of(_Y)),
        ),
        params,
    )


def starts(params: PredicateParams) -> ScoredPredicate:
    """``starts(x, y)``: same start, x ends before y."""
    return ScoredPredicate(
        "starts",
        (
            Comparison("equals", start_of(_X), start_of(_Y)),
            Comparison("greater", end_of(_Y), end_of(_X)),
        ),
        params,
    )


def finished_by(params: PredicateParams) -> ScoredPredicate:
    """``finishedBy(x, y)``: x starts before y, both end together."""
    return ScoredPredicate(
        "finishedBy",
        (
            Comparison("greater", start_of(_Y), start_of(_X)),
            Comparison("equals", end_of(_X), end_of(_Y)),
        ),
        params,
    )


def just_before(params: PredicateParams, avg_length: float) -> ScoredPredicate:
    """``justBefore(x, y)``: x ends before y starts, by at most the average length.

    Figure 4 fixes the greater comparator to the Boolean step (``lambda = rho = 0``)
    and sets the equality tolerance to the average interval length, keeping the
    caller's ``rho_equals`` as slope width.
    """
    boolean_greater = ComparatorParams(0.0, 0.0)
    equals_override = ComparatorParams(avg_length, params.equals.rho)
    return ScoredPredicate(
        "justBefore",
        (
            Comparison("greater", start_of(_Y), end_of(_X), params_override=boolean_greater),
            Comparison("equals", end_of(_X), start_of(_Y), params_override=equals_override),
        ),
        params,
    )


def shift_meets(params: PredicateParams, avg_length: float) -> ScoredPredicate:
    """``shiftMeets(x, y)``: y starts exactly ``avg`` after x ends."""
    return ScoredPredicate(
        "shiftMeets",
        (Comparison("equals", end_of(_X) + constant(avg_length), start_of(_Y)),),
        params,
    )


def sparks(params: PredicateParams, factor: float = 10.0) -> ScoredPredicate:
    """``sparks(x, y)``: x precedes y and y lasts ``factor`` times longer than x."""
    return ScoredPredicate(
        "sparks",
        (
            Comparison("greater", start_of(_Y), end_of(_X)),
            Comparison("greater", length_of(_Y), length_of(_X) * factor),
        ),
        params,
    )


ALLEN_PREDICATES: dict[str, Callable[[PredicateParams], ScoredPredicate]] = {
    "before": before,
    "equals": equals,
    "meets": meets,
    "overlaps": overlaps,
    "contains": contains,
    "starts": starts,
    "finishedBy": finished_by,
}
"""Factories of the seven Allen predicates used in the paper (Figure 2)."""


def predicate_by_name(
    name: str, params: PredicateParams, avg_length: float | None = None
) -> ScoredPredicate:
    """Build a predicate by name; extended predicates need ``avg_length``."""
    if name in ALLEN_PREDICATES:
        return ALLEN_PREDICATES[name](params)
    if name == "justBefore":
        if avg_length is None:
            raise ValueError("justBefore requires avg_length")
        return just_before(params, avg_length)
    if name == "shiftMeets":
        if avg_length is None:
            raise ValueError("shiftMeets requires avg_length")
        return shift_meets(params, avg_length)
    if name == "sparks":
        return sparks(params)
    raise KeyError(f"unknown predicate {name!r}")
