"""Virtual time.

A :class:`Clock` is a monotonically non-decreasing counter of seconds.  All
protocol layers take and return explicit timestamps (``query_at(...,
t_start) -> (reply, t_done)``) so that concurrent activity can be modelled
without threads: a caller that wants two lookups "in parallel" simply issues
both with the same start time and takes the max of the completion times.

The clock itself is only advanced by code that represents a single serial
actor (e.g. the probe client sleeping 15 seconds between SMTP commands).
"""

from __future__ import annotations

import time as _time


def wall_now() -> float:
    """The real wall clock, for human-facing progress output only.

    This is the single sanctioned bridge to real time: simulation code must
    take timestamps from a :class:`Clock`, and ``repro.lint.astcheck`` (rule
    AST001) rejects direct ``time.time()``/``datetime.now()`` calls anywhere
    else in the package.  Keeping the escape hatch here, one hop away from
    the virtual clock, makes the "which time am I using?" question explicit
    at every call site.
    """
    return _time.time()


class Clock:
    """A virtual clock counting seconds since the start of a simulation.

    Parameters
    ----------
    start:
        Initial time in seconds.  Campaigns typically use an epoch-like
        offset so timestamps resemble real traces, but zero works fine.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advancement is rejected: virtual time never runs backwards.
        """
        if seconds < 0:
            raise ValueError("cannot advance clock by a negative duration: %r" % seconds)
        self._now += seconds
        return self._now

    def sleep(self, seconds: float) -> float:
        """Alias of :meth:`advance`, for call sites modelling a real sleep."""
        return self.advance(seconds)

    def __repr__(self) -> str:
        return "Clock(now=%.6f)" % self._now
