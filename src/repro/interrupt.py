"""Cooperative interruption: map external stop signals onto the search.

The search already has one well-tested interruption story: raise
:class:`~repro.errors.SearchInterrupted` at a run boundary, let the
session flush its checkpoint, attach the partial result, and re-raise
(see :meth:`repro.search.directed.DirectedSearch.run`).  This module
connects *out-of-band* stop requests — SIGINT/SIGTERM, a campaign
handle's ``cancel()`` — to that same path, so ``kill -TERM`` salvages
exactly what an injected ``kill`` fault would.

Design: a :class:`StopRequest` cell in the run context
(``current().stop``, see :mod:`repro.context`), not an exception from
the signal handler.  Raising from a handler can land anywhere (inside a
checkpoint write, mid solver pivot); setting a request that the kernel
polls at its run boundary keeps interruption points identical to the
injected-kill fault site, which is what makes the exit-3 + resume
contract hold.  A *second* signal escalates to an immediate
:class:`KeyboardInterrupt` for operators who need out now.

Requests nest: a campaign runs under its own request whose ``parent``
is its submitter's, so cancelling one campaign stops nothing else while
a signal trapped by the submitter still stops every campaign it
launched.  Campaign workers never install handlers (only the parent
process traps signals); the ``--workers 1`` in-process path polls the
campaign's request directly.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from .errors import SearchInterrupted

__all__ = ["StopRequest", "trap_signals"]


class StopRequest:
    """A cooperative stop request, nested inside an optional ``parent``."""

    def __init__(self, parent: Optional["StopRequest"] = None) -> None:
        self.parent = parent
        self._reason: Optional[str] = None
        #: reentrant: a signal handler may request a stop while its own
        #: (main) thread is already inside :meth:`request`
        self._lock = threading.RLock()

    def request(self, reason: str) -> None:
        """Ask every cooperative checkpoint under this request to stop soon."""
        with self._lock:
            if self._reason is None:
                self._reason = reason

    @property
    def reason(self) -> Optional[str]:
        """The pending stop reason ("SIGINT", "cancel", ...), here or in a
        parent request; None when nothing asked to stop."""
        if self._reason is not None:
            return self._reason
        return self.parent.reason if self.parent is not None else None

    def check(self) -> None:
        """Raise :class:`SearchInterrupted` if a stop has been requested.

        Called at the kernel's run boundary (next to the ``kill`` fault
        site), so an external signal interrupts the search exactly where
        an injected kill would — checkpoint flushed, partial result
        attached.
        """
        reason = self.reason
        if reason is not None:
            raise SearchInterrupted(f"interrupted by {reason}")


@contextmanager
def trap_signals(
    signals: "tuple[int, ...]" = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[StopRequest]:
    """Route SIGINT/SIGTERM into a fresh stop request while active.

    The request is installed as ``current().stop`` for the block (every
    campaign launched inside inherits it as a parent).  First signal:
    request a stop (the search/campaign drains and exits 3 with a resume
    hint).  Second signal: raise :class:`KeyboardInterrupt` immediately.
    Restores the previous handlers on exit; the request goes with the
    block.  Outside the main thread (or where handlers cannot be
    installed) only the OS wiring is skipped.
    """
    from .context import current, use_context  # deferred: context imports us

    stop = StopRequest(current().stop)
    installed = {}

    def _handler(signum, frame):  # noqa: ANN001 - signal API
        name = signal.Signals(signum).name
        if stop.reason is not None:
            raise KeyboardInterrupt(name)
        stop.request(name)

    for signum in signals:
        try:
            installed[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):
            # not the main thread / unsupported signal: cooperative
            # request still works, the OS hook just isn't ours to install
            continue
    try:
        with use_context(stop=stop):
            yield stop
    finally:
        for signum, old in installed.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                continue
