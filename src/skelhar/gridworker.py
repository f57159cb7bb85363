"""Forked worker processes, and the grid cell that a grid worker runs.

fork_worker starts a worker: a fork of the command, made after its imports,
so a worker starts at once with the command's modules and data instead of
an interpreter that imports numpy. Every process runs BLAS on the threads
that `import skelhar` set (one, unless the user chose a count), so workers
share the CPUs by process. `skelhar grid` runs its cells on grid workers
(serve); `skelhar evaluate` runs its CV folds on fold workers
(evaluation.run_matrix_experiment).

run_cell is the only code that runs and times a grid cell; on one CPU
`skelhar grid` calls it in its own process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import time
import traceback
from typing import BinaryIO, Callable

# evaluation imports fork_worker from here while it loads, so this module
# names the functions it uses through the module object
from . import evaluation
from .features import FeatureMatrix


def run_cell(config: evaluation.PipelineConfig,
             matrix: FeatureMatrix) -> tuple[float, float, float] | str:
    """(cv accuracy, validation accuracy, seconds) of one cell's experiment,
    or the error text of a cell whose experiment raised."""
    start = time.perf_counter()
    try:
        result = evaluation.run_matrix_experiment(config, matrix)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return evaluation.error_text(exc)
    return (result.cv_report.overall_accuracy, result.report.overall_accuracy,
            time.perf_counter() - start)


def serve(requests: BinaryIO, replies: BinaryIO) -> None:
    """A grid worker: answer each pickled (config, matrix) request with
    run_cell's outcome, in order, until `requests` reaches EOF. matrix is
    None for a cell that uses the worker's last matrix."""
    matrix = None
    while True:
        try:
            config, sent = pickle.load(requests)
        except EOFError:
            return
        if sent is not None:
            matrix = sent
        pickle.dump(run_cell(config, matrix), replies)
        replies.flush()


class Worker:
    """A forked worker: its pid, the pipe this process writes its requests
    to and the pipe it replies on."""

    def __init__(self, pid: int, requests: BinaryIO, replies: BinaryIO):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.exit_code: int | None = None

    def wait(self) -> int:
        """The worker's exit code, once it has exited."""
        if self.exit_code is None:
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code

    def end(self) -> None:
        """End the worker if it still runs, wait for it and close its pipes.
        It holds nothing to save, and ending it spares the wait for it."""
        with contextlib.suppress(OSError):  # unsent bytes to a dead worker
            self.requests.close()
        if self.exit_code is None:
            os.kill(self.pid, signal.SIGTERM)
        self.wait()
        self.replies.close()


def fork_worker(work: Callable[[BinaryIO, BinaryIO], None]) -> Worker:
    """Fork a worker that runs work(requests, replies) and exits.

    The worker has a session of its own, so Ctrl-C reaches only this
    process, which ends its workers. It leaves through os._exit, with code 0
    once `work` returns and 1 after printing what it raised, so it never
    runs the caller's code after the fork or its exit handlers. It is meant
    for a process that runs no other thread, as a skelhar command does with
    BLAS on its default one thread.
    """
    request_read, request_write = os.pipe()
    reply_read, reply_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setsid()
            os.close(request_write)
            os.close(reply_read)
            with open(request_read, "rb") as requests, open(reply_write, "wb") as replies:
                work(requests, replies)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(request_read)
    os.close(reply_write)
    return Worker(pid, open(request_write, "wb"), open(reply_read, "rb"))
