"""The live one-line progress display of a sweep.

:func:`repro.experiments.runner.sweep` updates a :class:`SweepProgress`
once per point, whether the points run in process or on the pool
(:mod:`repro.parallel.executor`).  The display is observational: it
writes to a stream (stderr by default) and never touches results,
caches or fingerprints.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

#: One evaluation point: (mix index, config, scheduler).
Point = tuple[str, str, str]


class SweepProgress:
    """A live single-line progress display for one sweep.

    Rendering is throttled (``min_interval_s``) and written with a ``\\r``
    prefix so the line updates in place; :meth:`finish` terminates it with
    a newline.  Everything is injectable (stream, clock) so tests can
    drive it deterministically.
    """

    __slots__ = ("total", "enabled", "poll_interval_s", "min_interval_s",
                 "_stream", "_clock", "_start", "_last_emit", "_last_width",
                 "done")

    def __init__(
        self,
        total: int,
        stream: TextIO | None = None,
        enabled: bool = True,
        min_interval_s: float = 0.2,
        poll_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.enabled = enabled
        self.min_interval_s = min_interval_s
        self.poll_interval_s = poll_interval_s
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self._last_emit = float("-inf")
        self._last_width = 0
        self.done = 0

    def line(self, done: int, stragglers: tuple[Point, ...] = ()) -> str:
        """The progress line for ``done`` completed points."""
        elapsed = max(0.0, self._clock() - self._start)
        pct = (100.0 * done / self.total) if self.total else 100.0
        parts = [
            f"sweep {done}/{self.total} ({pct:.0f}%)",
            f"elapsed {elapsed:.1f}s",
        ]
        if 0 < done < self.total:
            if elapsed > 0.0:
                # ETA from the running mean seconds-per-point so far.
                eta = elapsed / done * (self.total - done)
                parts.append(f"eta {eta:.1f}s")
            else:
                # All done work completed within clock resolution: the
                # mean seconds-per-point is indistinguishable from zero,
                # so any extrapolation would be garbage.
                parts.append("eta --")
        if stragglers:
            shown = ", ".join("/".join(p) for p in stragglers[:2])
            extra = len(stragglers) - 2
            if extra > 0:
                shown += f" +{extra}"
            parts.append(f"in flight: {shown}")
        return " | ".join(parts)

    def update(
        self, done: int, stragglers: tuple[Point, ...] = (),
        force: bool = False,
    ) -> None:
        """Render (throttled) the current state of the sweep."""
        self.done = done
        if not self.enabled:
            return
        now = self._clock()
        if not force and done < self.total and (
            now - self._last_emit
        ) < self.min_interval_s:
            return
        self._last_emit = now
        text = self.line(done, stragglers)
        padded = text.ljust(self._last_width)
        self._last_width = len(text)
        self._stream.write("\r" + padded)
        self._stream.flush()

    def finish(self, done: int | None = None) -> None:
        """Emit the final line and terminate it with a newline.

        The final line counts ``done`` points, all of them by default.
        """
        if not self.enabled:
            return
        self.update(self.total if done is None else done, force=True)
        self._stream.write("\n")
        self._stream.flush()
