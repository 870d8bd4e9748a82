"""The run context: every piece of ambient per-run state, in one place.

Deep layers — the SMT solvers, the validity engine, the search kernel,
the campaign supervisor — consult state nobody threads through their
constructors: the journal to emit to, the metrics registry to record
into, the fault plan to fire, the query cache, the solver budget, the
pending stop request, and the injected-hang flag.  All of it lives in
one frozen :class:`RunContext` held by a :class:`contextvars.ContextVar`,
so each thread (and each :func:`contextvars.copy_context` copy) sees its
own: two campaigns running side by side in one process cannot read each
other's fault plan, registry, cache or stop request.

Read a slot with ``current().registry``; replace slots for a block with
``with use_context(registry=..., fault_plan=...):``.  Outside any block
the defaults apply: :data:`~repro.obs.journal.NULL_JOURNAL`,
:data:`~repro.obs.metrics.NULL_REGISTRY`,
:data:`~repro.faults.NULL_PLAN`, the one process-wide
:class:`~repro.solver.cache.QueryCache`,
:data:`~repro.solver.budget.DEFAULT_BUDGET`, no stop request and no hang.

A new thread starts from the defaults, not from its creator's context;
code that hands work to a thread runs it inside
:func:`contextvars.copy_context` (see :class:`repro.api.Client`).
Worker processes start fresh and install their own context per job
(:func:`repro.engine.runner.run_job`).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Union

# the modules that own the defaults are imported here, so they reach the
# context only through imports deferred into the functions that need it
# (or, in obs.journal, one placed below the default it exports)
from .faults import NULL_PLAN, FaultPlan, NullFaultPlan
from .interrupt import StopRequest
from .obs.journal import NULL_JOURNAL, NullJournal, RunJournal
from .obs.metrics import NULL_REGISTRY, MetricsRegistry
from .solver.budget import DEFAULT_BUDGET, SolverBudget
from .solver.cache import QueryCache

__all__ = ["RunContext", "current", "use_context"]


@dataclass(frozen=True)
class RunContext:
    """The ambient state of one run; replace slots with :func:`use_context`."""

    #: the journal deeply nested layers (solvers, supervisor) emit to
    journal: Union[RunJournal, NullJournal] = NULL_JOURNAL
    #: the registry instrumented modules record into
    registry: MetricsRegistry = NULL_REGISTRY
    #: the plan injection sites consult
    fault_plan: Union[FaultPlan, NullFaultPlan] = NULL_PLAN
    #: the query cache stateless solver checks consult: one cache shared
    #: by the whole process unless a run installs its own; None disables
    cache: Optional[QueryCache] = QueryCache()
    #: the limits newly constructed solvers inherit
    budget: SolverBudget = DEFAULT_BUDGET
    #: the stop request cooperative checkpoints poll; the default is
    #: never requested (scope a fresh one with ``use_context(stop=...)``)
    stop: StopRequest = StopRequest()
    #: the injected ``hang`` fault is armed for this job's search
    hang: bool = False


_RUN: "ContextVar[RunContext]" = ContextVar("repro_run_context", default=RunContext())

#: ``current()`` returns the caller's :class:`RunContext`
current = _RUN.get


@contextmanager
def use_context(**slots: object) -> Iterator[RunContext]:
    """Run the block with ``slots`` replaced in the current context."""
    context = replace(_RUN.get(), **slots)
    token = _RUN.set(context)
    try:
        yield context
    finally:
        _RUN.reset(token)
