"""Process-pool plumbing for the bulk-ingest parse stage.

The parse stage (:mod:`repro.core.io_.bulk`) fans profile parsing out
across worker processes and needs a careful pool lifecycle:

* **no ``with`` block** around the executor — the context manager's
  exit calls ``shutdown(wait=True)``, which joins the workers and would
  stall the whole batch behind one hung task despite its timeout having
  fired;
* **per-task result timeouts**, with ``terminate()`` on the worker
  processes when any task timed out (a stuck worker cannot be
  cancelled, only killed — otherwise it outlives the batch and wedges
  interpreter shutdown's executor join);
* **BrokenProcessPool fan-out** — once the pool dies, every remaining
  future fails the same way, so they are all marked failed at once
  instead of surfacing one confusing traceback per task.

:func:`run_tasks` is the entry point (submit, collect, tear down);
:class:`WorkerPool` is the pool it runs on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence


@dataclass
class TaskFailure:
    """Sentinel result for one failed pool task.

    ``error`` is the exception the future raised; ``timed_out`` marks a
    per-task timeout (the pool's workers were terminated afterwards).
    """

    error: BaseException
    timed_out: bool = False

    @property
    def broken_pool(self) -> bool:
        return isinstance(self.error, BrokenProcessPool)


def default_workers(n_tasks: int) -> int:
    return min(n_tasks, os.cpu_count() or 1)


class WorkerPool:
    """A lazily-created ProcessPoolExecutor with hardened teardown.

    ``run`` submits one task per spec and returns results in spec
    order, substituting :class:`TaskFailure` for tasks that raised or
    timed out — the caller decides whether a failure dooms the batch or
    is retried elsewhere.  ``shutdown`` never joins hung workers; with
    ``terminate=True`` it kills them outright.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -------------------------------------------------------------- lifecycle --

    @property
    def active(self) -> bool:
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def shutdown(self, terminate: bool = False) -> None:
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        if terminate:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except OSError:
                    pass

    # -------------------------------------------------------------- execution --

    def run(
        self,
        fn: Callable[..., Any],
        specs: Sequence[Any],
        task_timeout: Optional[float] = None,
    ) -> list[Any]:
        """Run ``fn(spec)`` for every spec; results in spec order.

        Failed or timed-out tasks yield :class:`TaskFailure` entries.
        After any timeout the pool is torn down with ``terminate`` so a
        genuinely stuck worker cannot wedge shutdown; after a
        BrokenProcessPool all remaining tasks are marked failed at once
        and the dead pool is discarded (the next ``run`` re-forks).
        """
        pool = self._ensure_pool()
        results: list[Any] = [None] * len(specs)
        timed_out = False
        broken: Optional[BaseException] = None
        futures = [pool.submit(fn, spec) for spec in specs]
        for i, future in enumerate(futures):
            if broken is not None:
                results[i] = TaskFailure(broken)
                continue
            try:
                results[i] = future.result(timeout=task_timeout)
            except FutureTimeout as exc:
                future.cancel()
                timed_out = True
                results[i] = TaskFailure(exc, timed_out=True)
            except BrokenProcessPool as exc:
                # The pool is gone; every remaining future fails the
                # same way — mark them all without waiting on each.
                broken = exc
                results[i] = TaskFailure(exc)
            except BaseException as exc:
                results[i] = TaskFailure(exc)
        if timed_out or broken is not None:
            self.shutdown(terminate=timed_out)
        return results


def run_tasks(
    fn: Callable[..., Any],
    specs: Sequence[Any],
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> list[Any]:
    """One-shot fan-out: pool up, run every spec, tear the pool down.

    The pool is always shut down without joining (and with worker
    termination after a timeout) before returning.
    """
    if workers is None:
        workers = default_workers(len(specs))
    pool = WorkerPool(workers)
    try:
        return pool.run(fn, specs, task_timeout=task_timeout)
    finally:
        pool.shutdown()
