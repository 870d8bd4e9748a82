"""Serial flip planning: each branch flip is solved on a fresh term manager.

The directed search (paper §2, Fig. 3) expands one execution record by
asking the backend for an input vector per negatable condition, one flip
at a time.  :func:`generate_flip` is that one step as the kernel calls it:

- for the built-in backends, matched by exact type (a subclass may have
  overridden ``generate`` with logic this path would silently skip), the
  request is copied into a fresh :class:`TermManager` by
  :func:`import_request` and solved there; the answer is then finished
  against the live backend — solver-call counts, the higher-order verdict
  log, strategy concretization against the live sample store, and
  multi-step probes;
- any other backend is called inline through its own ``generate``.

:func:`import_request` stays, and stays in this module, for two reasons.
Term ids in the copy depend only on the request's structure, never on
what else the engine's manager has interned, and the solver's variable
and atom order follows term ids.  The recorded higher-order suite
digests in ``perfbench/expected.json`` rely on that: without the copy,
the lexer hunt's digest changes.  And ``perfbench/tracing.py`` times it as the
``search.import_request`` span by its ``repro.search.parallel`` path.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..solver.terms import Term, TermManager
from .backends import ExistentialBackend, QuantifierFreeBackend
from .request import GeneratedTest, GenerationRequest, TestGenBackend

__all__ = ["generate_flip", "import_request"]


def import_request(
    request: GenerationRequest,
) -> Tuple[TermManager, GenerationRequest]:
    """Deep-copy ``request`` into a fresh :class:`TermManager`.

    Path-condition terms and input variables are imported (function symbols
    stay shared — they are immutable and identity-keyed everywhere), so
    term ids in the copy depend only on the request's structure.
    """
    local = TermManager()
    cache: Dict[Term, Term] = {}
    conditions = [
        dataclasses.replace(pc, term=local.import_term(pc.term, cache))
        for pc in request.conditions
    ]
    input_vars = {
        name: local.import_term(var, cache)
        for name, var in request.input_vars.items()
    }
    return local, GenerationRequest(
        conditions=conditions,
        index=request.index,
        input_vars=input_vars,
        defaults=dict(request.defaults),
    )


def generate_flip(
    backend: TestGenBackend, request: GenerationRequest
) -> Optional[GeneratedTest]:
    """The test for one flip, or None when the backend finds none."""
    from ..core.hotg import HigherOrderBackend, plan_validity  # core imports search

    kind = type(backend)
    if kind is HigherOrderBackend:
        local_tm, local_request = import_request(request)
        verdict = plan_validity(
            local_tm,
            local_request,
            backend.store.samples(),
            use_antecedent=backend.use_antecedent,
            max_candidates=backend.max_candidates,
        )
        return backend.apply_plan(request, verdict)
    if kind is QuantifierFreeBackend:
        local_tm, local_request = import_request(request)
        solver = QuantifierFreeBackend(
            local_tm, retain_defaults=backend.retain_defaults, use_session=False
        )
    elif kind is ExistentialBackend:
        local_tm, local_request = import_request(request)
        solver = ExistentialBackend(local_tm, use_session=False)
    else:
        return backend.generate(request)
    test = solver.generate(local_request)
    backend.solver_calls += solver.solver_calls
    return test
