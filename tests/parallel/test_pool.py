"""WorkerPool error handling: a task's own exception is not a broken pool."""

import os
import sys
import warnings

import pytest

from repro.parallel import ParallelConfig, WorkerPool


# Module-level so spawn workers can unpickle it.
def _pid_unless_negative(value):
    if value < 0:
        raise ValueError(f"negative task input {value}")
    return os.getpid()


class TestTaskErrors:
    def test_task_error_reraises_and_pool_stays_parallel(self):
        with WorkerPool(ParallelConfig(n_workers=2)) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="negative") as info:
                    pool.map_indexed(
                        _pid_unless_negative, [(0,), (-1,), (2,)]
                    )
                if sys.version_info >= (3, 11):  # exception notes
                    assert info.value.__notes__ == [
                        "raised by parallel task 1"
                    ]
                assert not pool.serial
                pids = pool.map_indexed(
                    _pid_unless_negative, [(i,) for i in range(4)]
                )
        assert os.getpid() not in pids

    def test_serial_pool_raises_the_task_error(self):
        pool = WorkerPool(ParallelConfig(n_workers=1))
        with pytest.raises(ValueError, match="negative"):
            pool.map_indexed(_pid_unless_negative, [(-3,)])
        assert pool.map_indexed(_pid_unless_negative, [(1,)]) == [
            os.getpid()
        ]
