"""The unified algorithm registry.

``REGISTRY`` maps algorithm names to :class:`~repro.plan.Algorithm` instances;
the experiment harness, the figure table and CLI dispatch exclusively through it,
so adding a new distributed strategy is one ``register`` call — no driver or
CLI change.
"""

from __future__ import annotations

from .algorithm import Algorithm

__all__ = ["REGISTRY", "available_algorithms", "get_algorithm", "register"]

REGISTRY: dict[str, Algorithm] = {}
"""Algorithm name -> registered instance (populated by :mod:`repro.plan.algorithms`)."""


def register(algorithm: Algorithm) -> Algorithm:
    """Register an algorithm under its ``name`` (replacing any previous holder)."""
    if not algorithm.name or algorithm.name == Algorithm.name:
        raise ValueError(f"algorithm {algorithm!r} must define a distinctive name")
    REGISTRY[algorithm.name] = algorithm
    return algorithm


def get_algorithm(name: str) -> Algorithm:
    """Look up a registered algorithm by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(REGISTRY)}"
        ) from None


def available_algorithms() -> list[str]:
    """Sorted names of every registered algorithm."""
    return sorted(REGISTRY)
