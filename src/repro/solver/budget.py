"""Per-query solver budgets, scoped through the run context.

Every layer of the solver stack already enforces a resource limit — lazy
SMT iterations (:mod:`.smt`, :mod:`.session`), CDCL conflicts
(:mod:`.sat`), branch-and-bound branches and simplex pivots
(:mod:`.lia`) — but the limits were hard-coded per constructor, so a
caller who wants to *degrade* a query (retry it cheaper, or re-queue it
with more headroom) had no single knob.  :class:`SolverBudget` bundles the
limits, and the run context's ``budget`` slot (:mod:`repro.context`)
lets high-level policies like the directed search's degradation ladder
scope a budget over arbitrarily deep solver construction without
threading a parameter through every layer::

    with use_context(budget=DEFAULT_BUDGET.scaled(4)):
        backend.generate(request)   # every Solver/SolverSession inside
                                    # inherits the escalated limits

A :class:`~repro.errors.ResourceLimitError` raised under a budget means
"this query was not decided within the allotted resources" — the caller
chooses whether to degrade, defer, or give up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "SolverBudget",
    "DEFAULT_BUDGET",
    "DEGRADED_BUDGET",
]


@dataclass(frozen=True)
class SolverBudget:
    """Resource limits applied to one solver query (or session)."""

    #: lazy SMT loop iterations (SAT models proposed per check)
    max_iterations: int = 5_000
    #: CDCL conflicts (cumulative per solver instance)
    max_conflicts: int = 500_000
    #: LIA branch-and-bound branches per theory check
    max_branches: int = 2_000
    #: simplex pivots per LP solve
    max_pivots: int = 200_000

    def scaled(self, factor: float) -> "SolverBudget":
        """A budget with every limit multiplied by ``factor`` (min 1)."""
        return SolverBudget(
            max_iterations=max(1, int(self.max_iterations * factor)),
            max_conflicts=max(1, int(self.max_conflicts * factor)),
            max_branches=max(1, int(self.max_branches * factor)),
            max_pivots=max(1, int(self.max_pivots * factor)),
        )

    def with_(self, **overrides: int) -> "SolverBudget":
        return replace(self, **overrides)


#: the limits the solvers have always shipped with
DEFAULT_BUDGET = SolverBudget()

#: the budget for degraded (concretized, UF-free) fallback queries: these
#: formulas are structurally much simpler, so a slim budget guarantees the
#: ladder terminates quickly even when the full query was hopeless
DEGRADED_BUDGET = SolverBudget(
    max_iterations=1_000,
    max_conflicts=100_000,
    max_branches=500,
    max_pivots=50_000,
)
