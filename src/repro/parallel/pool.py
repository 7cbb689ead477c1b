"""Worker-pool lifecycle with graceful serial degradation.

:class:`WorkerPool` wraps a ``concurrent.futures.ProcessPoolExecutor``
on the configured start method.  Two properties matter more than raw
convenience:

* **Degradation, not crashes.**  Pool start-up can fail in plenty of
  legitimate environments (sandboxes without ``/dev/shm`` semaphores,
  containers with one CPU and strict rlimits).  With
  ``fallback_serial`` (the default) the pool silently reports itself
  as serial and every ``map_indexed`` call runs in-process.  Results
  are identical either way — the determinism contract does not allow
  the pool to change answers, only wall time.
* **Reuse.**  With the ``spawn`` start method each worker pays a full
  interpreter + NumPy import on start; benchmarks must create one pool
  per measurement session (see :func:`measure_throughput`'s sharded
  path) rather than one per run, so steady-state throughput is
  measured, not process creation.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.errors import ParallelError
from repro.parallel.config import ParallelConfig

__all__ = ["WorkerPool"]


class WorkerPool:
    """A reusable process pool bound to a :class:`ParallelConfig`.

    The executor starts lazily on first use; ``serial`` pools (resolved
    worker count <= 1, or start-up failure with ``fallback_serial``)
    never create processes at all.
    """

    def __init__(self, config: ParallelConfig | None = None) -> None:
        self.config = config if config is not None else ParallelConfig()
        self.n_workers = self.config.resolve_workers()
        self._executor: Any = None
        self._broken = False

    @property
    def serial(self) -> bool:
        """True when calls will run in-process."""
        return self.n_workers <= 1 or self._broken

    def _ensure_executor(self) -> Any:
        if self._executor is not None or self.serial:
            return self._executor
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context(self.config.start_method)
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        except Exception as exc:  # noqa: BLE001 - degrade on any start failure
            if not self.config.fallback_serial:
                raise ParallelError(
                    f"could not start a {self.n_workers}-worker "
                    f"{self.config.start_method!r} pool: {exc}"
                ) from exc
            warnings.warn(
                f"parallel pool unavailable ({exc}); running serially",
                stacklevel=3,
            )
            self._broken = True
            self._executor = None
        return self._executor

    def map_indexed(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> list[Any]:
        """Run ``fn(*task)`` for every task; results in task order.

        Task order — never completion order — keeps every downstream
        merge deterministic regardless of scheduling.  On a serial pool
        the tasks run in-process in the same order.  A task that raises
        re-raises here, noted with its task index, and the pool stays
        parallel.  Only a broken pool (a worker was OOM-killed, say)
        degrades: every task re-runs serially, and later calls stay
        serial, when ``fallback_serial`` is on.
        """
        executor = self._ensure_executor()
        if executor is None:
            return [fn(*task) for task in tasks]
        futures = []
        try:
            futures = [executor.submit(fn, *task) for task in tasks]
            return [
                _result(index, future) for index, future in enumerate(futures)
            ]
        except BrokenProcessPool as exc:
            if not self.config.fallback_serial:
                raise
            warnings.warn(
                f"parallel pool failed mid-run ({exc}); re-running serially",
                stacklevel=3,
            )
            self.close()
            self._broken = True
            return [fn(*task) for task in tasks]
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _result(index: int, future: Any) -> Any:
    """A task's result; a task exception is noted with its index."""
    try:
        return future.result()
    except BrokenProcessPool:
        raise
    except Exception as exc:
        if hasattr(exc, "add_note"):  # Python >= 3.11
            exc.add_note(f"raised by parallel task {index}")
        raise
