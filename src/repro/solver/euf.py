"""Congruence closure for the theory of equality with uninterpreted functions.

This implements the classic union-find + congruence-table algorithm with
*explanation generation*: when two terms are merged, the equality (or
congruence step) responsible is recorded on a proof forest so that conflicts
can be traced back to a subset of the asserted input equalities.

The solver consumes conjunctions of equalities and disequalities between
terms built from variables, constants, and uninterpreted function
applications.  It is used in three places:

- as a standalone decision procedure for EUF conjunctions (tests, validity
  engine strategies such as "``f(x)=f(y)`` — set ``x=y``"),
- to detect equalities entailed by a path constraint's equality skeleton,
- as a cross-check for models produced by the Ackermannized main solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..context import current
from ..errors import SolverError
from .terms import Kind, Term

__all__ = ["CongruenceClosure", "EufResult"]


@dataclass
class EufResult:
    """Outcome of an EUF consistency check."""

    sat: bool
    #: When UNSAT: the asserted input literals participating in the conflict.
    #: Each entry is ``(a, b, polarity)`` — an equality if polarity is True.
    conflict: List[Tuple[Term, Term, bool]] = field(default_factory=list)


class CongruenceClosure:
    """Incremental congruence closure with explanations.

    Usage::

        cc = CongruenceClosure()
        cc.assert_equal(x, y, tag=(x, y, True))
        assert cc.are_equal(f_x, f_y)   # by congruence
    """

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._rank: Dict[Term, int] = {}
        # proof forest: child -> (parent, reason); reason is either an input
        # tag or the pair of application terms merged by congruence
        self._proof_parent: Dict[Term, Tuple[Term, object]] = {}
        # uses: representative -> list of application terms having an
        # argument in that class
        self._uses: Dict[Term, List[Term]] = {}
        # congruence signature table: (fn, arg reps) -> application term
        self._sig: Dict[Tuple[object, Tuple[Term, ...]], Term] = {}
        # asserted disequalities with their tags
        self._diseqs: List[Tuple[Term, Term, object]] = []
        self._registered: Set[Term] = set()
        self._pending_apps: List[Term] = []
        self._conflict: Optional[List[Tuple[Term, Term, bool]]] = None
        #: union-find merges performed (congruence-induced ones included)
        self.merges = 0
        self._reported_merges = 0

    # -- registration ------------------------------------------------------------

    def register(self, term: Term) -> None:
        """Make a term (and its subterms) known to the closure."""
        stack = [term]
        while stack:
            t = stack.pop()
            if t in self._registered:
                continue
            self._registered.add(t)
            self._parent[t] = t
            self._rank[t] = 0
            self._uses[t] = []
            if t.kind is Kind.APP:
                for a in t.args:
                    stack.append(a)
                self._pending_apps.append(t)
        # process applications bottom-up (children already registered)
        pending = self._pending_apps
        self._pending_apps = []
        for app in reversed(pending):
            self._install_app(app)

    def _install_app(self, app: Term) -> None:
        sig = (app.fn, tuple(self._find(a) for a in app.args))
        existing = self._sig.get(sig)
        if existing is not None and existing is not app:
            self._merge(app, existing, reason=("congruence", app, existing))
        else:
            self._sig[sig] = app
        for a in app.args:
            self._uses[self._find(a)].append(app)

    # -- union-find --------------------------------------------------------------

    def _find(self, t: Term) -> Term:
        root = t
        while self._parent[root] is not root:
            root = self._parent[root]
        # path compression
        while self._parent[t] is not root:
            self._parent[t], t = root, self._parent[t]
        return root

    def are_equal(self, a: Term, b: Term) -> bool:
        """True if the closure currently entails ``a = b``."""
        self.register(a)
        self.register(b)
        return self._find(a) is self._find(b)

    def representative(self, t: Term) -> Term:
        """Current representative of ``t``'s congruence class."""
        self.register(t)
        return self._find(t)

    def classes(self) -> List[List[Term]]:
        """All congruence classes with >= 1 member, deterministic order."""
        groups: Dict[Term, List[Term]] = {}
        for t in self._registered:
            groups.setdefault(self._find(t), []).append(t)
        out = [sorted(g, key=lambda x: x.tid) for g in groups.values()]
        out.sort(key=lambda g: g[0].tid)
        return out

    # -- assertion ----------------------------------------------------------------

    def assert_equal(self, a: Term, b: Term, tag: object = None) -> bool:
        """Assert ``a = b``; returns False if this caused a conflict."""
        if self._conflict is not None:
            return False
        self.register(a)
        self.register(b)
        self._merge(a, b, reason=("input", tag if tag is not None else (a, b, True)))
        self._check_diseqs()
        return self._conflict is None

    def assert_diseq(self, a: Term, b: Term, tag: object = None) -> bool:
        """Assert ``a != b``; returns False if this caused a conflict."""
        if self._conflict is not None:
            return False
        self.register(a)
        self.register(b)
        self._diseqs.append((a, b, tag if tag is not None else (a, b, False)))
        self._check_diseqs()
        return self._conflict is None

    def check(self) -> EufResult:
        """Report the current consistency status."""
        registry = current().registry
        if registry.enabled:
            registry.counter("euf.checks").inc()
            registry.counter("euf.merges").inc(self.merges - self._reported_merges)
            self._reported_merges = self.merges
            registry.counter(
                "euf.sat" if self._conflict is None else "euf.unsat"
            ).inc()
        if self._conflict is not None:
            return EufResult(sat=False, conflict=list(self._conflict))
        return EufResult(sat=True)

    # -- merging ----------------------------------------------------------------

    def _merge(self, a: Term, b: Term, reason: object) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra is rb:
            return
        self.merges += 1
        # record proof edge between the original terms
        self._proof_add(a, b, reason)
        # union by rank
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        # congruence propagation: re-signature all uses of the merged class
        moved_uses = self._uses.pop(rb, [])
        self._uses.setdefault(ra, []).extend(moved_uses)
        todo: List[Tuple[Term, Term]] = []
        for app in moved_uses:
            sig = (app.fn, tuple(self._find(x) for x in app.args))
            existing = self._sig.get(sig)
            if existing is None:
                self._sig[sig] = app
            elif self._find(existing) is not self._find(app):
                todo.append((app, existing))
        for app, existing in todo:
            self._merge(app, existing, reason=("congruence", app, existing))

    def _check_diseqs(self) -> None:
        if self._conflict is not None:
            return
        for a, b, tag in self._diseqs:
            if self._find(a) is self._find(b):
                explanation = self.explain(a, b)
                conflict = list(explanation)
                if isinstance(tag, tuple) and len(tag) == 3:
                    conflict.append(tag)  # the violated disequality itself
                self._conflict = conflict
                return

    # -- explanations --------------------------------------------------------------

    def _proof_add(self, a: Term, b: Term, reason: object) -> None:
        """Add edge a—b to the proof forest, re-rooting a's tree at a."""
        self._reroot(a)
        self._proof_parent[a] = (b, reason)

    def _reroot(self, t: Term) -> None:
        path: List[Term] = []
        cur = t
        while cur in self._proof_parent:
            path.append(cur)
            cur = self._proof_parent[cur][0]
        # reverse edges along the path
        for node in reversed(path):
            parent, reason = self._proof_parent.pop(node)
            self._proof_parent[parent] = (node, reason)

    def _proof_path(self, t: Term) -> List[Term]:
        path = [t]
        while path[-1] in self._proof_parent:
            path.append(self._proof_parent[path[-1]][0])
        return path

    def explain(self, a: Term, b: Term) -> List[Tuple[Term, Term, bool]]:
        """Input equalities whose closure entails ``a = b``.

        Returns tags of input assertions (as ``(x, y, True)`` triples unless
        custom tags were supplied, in which case those are returned).
        Congruence steps recurse into argument explanations.
        """
        if self._find(a) is not self._find(b):
            raise SolverError(f"explain called on non-equal terms {a}, {b}")
        out: List[Tuple[Term, Term, bool]] = []
        seen_steps: Set[int] = set()
        self._explain_into(a, b, out, seen_steps, depth=0)
        # dedupe while keeping order
        deduped: List[Tuple[Term, Term, bool]] = []
        seen: Set[object] = set()
        for item in out:
            key = id(item) if not isinstance(item, tuple) else item
            if key in seen:
                continue
            seen.add(key)
            deduped.append(item)
        return deduped

    def _explain_into(
        self,
        a: Term,
        b: Term,
        out: List[Tuple[Term, Term, bool]],
        seen_steps: Set[int],
        depth: int,
    ) -> None:
        if depth > 10_000:
            raise SolverError("explanation recursion too deep")
        if a is b:
            return
        pa = self._proof_path(a)
        pb = self._proof_path(b)
        common = None
        pb_set = {id(t): i for i, t in enumerate(pb)}
        for i, t in enumerate(pa):
            if id(t) in pb_set:
                common = (i, pb_set[id(t)])
                break
        if common is None:
            raise SolverError("no common ancestor in proof forest")
        ia, ib = common
        for i in range(ia):
            self._explain_edge(pa[i], out, seen_steps, depth)
        for i in range(ib):
            self._explain_edge(pb[i], out, seen_steps, depth)

    def _explain_edge(
        self,
        child: Term,
        out: List[Tuple[Term, Term, bool]],
        seen_steps: Set[int],
        depth: int,
    ) -> None:
        parent, reason = self._proof_parent[child]
        if isinstance(reason, tuple) and reason and reason[0] == "congruence":
            _, app1, app2 = reason
            step_key = (id(app1), id(app2))
            if step_key in seen_steps:
                return
            seen_steps.add(step_key)  # type: ignore[arg-type]
            for x, y in zip(app1.args, app2.args):
                self._explain_into(x, y, out, seen_steps, depth + 1)
        elif isinstance(reason, tuple) and reason and reason[0] == "input":
            out.append(reason[1])  # type: ignore[arg-type]
        else:  # pragma: no cover - defensive
            raise SolverError(f"malformed proof reason {reason!r}")


def check_euf_conjunction(
    equalities: Sequence[Tuple[Term, Term]],
    disequalities: Sequence[Tuple[Term, Term]],
) -> EufResult:
    """Convenience one-shot EUF consistency check."""
    cc = CongruenceClosure()
    for a, b in equalities:
        if not cc.assert_equal(a, b):
            return cc.check()
    for a, b in disequalities:
        if not cc.assert_diseq(a, b):
            return cc.check()
    return cc.check()
