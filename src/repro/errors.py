"""Exception hierarchy for the COLAB reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate the failure domain (simulator, kernel
machinery, workload construction, model fitting, experiment harness).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SimulationError(ReproError):
    """An invariant of the discrete-event simulator was violated."""


class SchedulerError(ReproError):
    """A scheduling policy produced an illegal decision.

    Examples: allocating a task to a core outside its affinity mask,
    selecting a task that is not runnable, or double-enqueuing a task.
    """


class KernelError(ReproError):
    """The Linux-like kernel substrate detected inconsistent state.

    Examples: releasing a lock that is not held, waking a task that is not
    sleeping, or corrupting runqueue bookkeeping.
    """


class WorkloadError(ReproError):
    """A workload or benchmark model was constructed with invalid parameters."""


class ModelError(ReproError):
    """The speedup-prediction pipeline was misused or failed to fit.

    Examples: predicting before training, or training on a degenerate
    counter matrix.
    """


class ExperimentError(ReproError):
    """The experiment harness was given an unknown workload/config/scheduler."""


class SanitizerError(ReproError):
    """The runtime scheduler sanitizer ("schedsan") detected a broken invariant.

    Raised only on sanitizer-enabled runs (``MachineConfig(sanitize=True)``).
    Carries the name of the failed check and, when the run was traced, the
    most recent obs-tracer events so the failure report shows what the
    scheduler was doing right before the invariant broke.

    Attributes:
        check: Short identifier of the violated invariant
            ("runqueue" / "task_state" / "futex_pairing" / ...).
        events: Recent :class:`repro.obs.tracer.TraceEvent` records
            (empty when the run was not traced).
    """

    def __init__(self, message: str, *, check: str | None = None, events=None) -> None:
        self.check = check
        self.events = list(events or [])
        if check is not None:
            message = f"[schedsan:{check}] {message}"
        if self.events:
            tail = "\n".join(
                f"  t={e.time:.3f} {e.kind.value}"
                f" core={e.core_id} tid={e.tid} name={e.name} {e.args or ''}"
                for e in self.events
            )
            message = (
                f"{message}\nlast {len(self.events)} trace events before the failure:\n{tail}"
            )
        super().__init__(message)
