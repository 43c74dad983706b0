"""Linux-like kernel scheduling substrate.

This package rebuilds, in Python, the parts of the Linux kernel that the
COLAB paper modifies or relies upon:

* :mod:`repro.kernel.task` -- the ``task_struct`` analogue, including the
  per-task bookkeeping COLAB adds (blocking time, predicted speedup,
  labels);
* :mod:`repro.kernel.runqueue` -- per-core runqueues ordered by
  ``(vruntime, tid)`` with a leftmost pick, the CFS timeline;
* :mod:`repro.kernel.futex` -- the futex wait/wake machinery instrumented
  exactly where the paper instruments it (``futex_wait_queue_me`` /
  ``wake_futex``) to accumulate caused-wait time on the waker;
* :mod:`repro.kernel.sync` -- locks, barriers, condition variables and
  bounded pipes built on futexes, used by the synthetic workloads.
"""

from repro.kernel.futex import FutexTable, FutexWaiter
from repro.kernel.runqueue import RunQueue
from repro.kernel.sync import Barrier, CondVar, Mutex, Pipe, RWLock, Semaphore
from repro.kernel.task import Task, TaskState

__all__ = [
    "Barrier",
    "CondVar",
    "FutexTable",
    "FutexWaiter",
    "Mutex",
    "Pipe",
    "RWLock",
    "RunQueue",
    "Semaphore",
    "Task",
    "TaskState",
]
