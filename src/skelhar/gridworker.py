"""One queue of tasks, run by the workers it forks or by this process.

Tasks holds the tasks run(0) ... run(count - 1). Their numbers wait in one
pipe, which every worker reads, so each worker takes the next task when it
is free. A worker is a fork of the command, made once the tasks' inputs
exist, so it starts at once with the command's modules and data instead of
an interpreter that imports numpy. Every process runs BLAS on the threads
that `import skelhar` set (one, unless the user chose a count), so workers
share the CPUs by process. With one worker planned, no process is forked
and every task runs in this process, through the same code.

`skelhar grid` runs one task per cell (cli.grid), and `skelhar evaluate`
its final fit and one task per CV fold (evaluation.run_matrix_experiment).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import select
import signal
import traceback
from typing import Callable

_NUMBER = 4  # bytes of a task number in the queue
_CHUNK = 4096  # bytes per write to the queue: at most PIPE_BUF, so each write is whole
_LENGTH = 8  # bytes of a reply's length prefix


def failed(outcome) -> bool:
    """Whether a task's outcome is an error: its text, or the exception."""
    return isinstance(outcome, (str, Exception))


def _read(fd: int, size: int) -> bytes:
    """`size` bytes from fd, or fewer once it reaches EOF."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return bytes(data)


class Tasks:
    """The tasks run(0) ... run(count - 1), taken in task order from one
    queue by `workers` forked workers or, for one, by this process
    (collect). This process runs no task beside workers: it holds the file
    pages its imports touched, where a fork counts only those it touches.

    A task fails when its outcome is an error (failed). The process that
    ran it empties the queue, so no later task starts; as the queue is
    FIFO, every lower task has been taken by then, and the lowest failing
    task is the one that running the tasks in order would stop at. A worker
    replies with each task's number and outcome, pickled behind an 8-byte
    length; a task taken and never replied to was held by a worker that
    died. The queue is filled up to its pipe's capacity (16,384 tasks in
    Linux's 64 KiB pipe); tasks beyond it stay with this process. Leaving
    the `with` block ends every worker that still runs, which holds nothing
    to save, and waits for it.
    """

    def __init__(self, count: int, run: Callable[[int], object], workers: int = 1):
        self.count, self.run = count, run
        self.workers: dict[int, int] = {}  # the pipe a worker replies on -> its pid
        self.exit_codes: dict[int, int] = {}  # pid -> exit code, once waited for
        self.queue, write = os.pipe()
        os.set_blocking(write, False)
        queued = 0
        with contextlib.suppress(BlockingIOError):  # the pipe is full
            while queued < count:
                end = min(count, queued + _CHUNK // _NUMBER)
                os.write(write, b"".join(n.to_bytes(_NUMBER, "little")
                                         for n in range(queued, end)))
                queued = end
        os.close(write)  # before any fork: an empty queue reads EOF
        self.unqueued = range(queued, count)
        try:
            for _ in range(workers if workers > 1 else 0):
                replies, write = os.pipe()
                if (pid := os.fork()) == 0:
                    self._serve(replies, write)
                os.close(write)
                self.workers[replies] = pid
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "Tasks":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self.queue)
        for replies, pid in self.workers.items():
            if pid not in self.exit_codes:
                os.kill(pid, signal.SIGTERM)
            self._wait(pid)
            os.close(replies)

    def _wait(self, pid: int) -> int:
        """A worker's exit code, once it has exited."""
        if pid not in self.exit_codes:
            self.exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return self.exit_codes[pid]

    def _take(self):
        """Task numbers from the queue, until it is empty."""
        while chunk := os.read(self.queue, _NUMBER):
            yield int.from_bytes(chunk, "little")

    def _finish(self, n: int):
        """Task n's outcome; after a failure the queue is emptied."""
        outcome = self.run(n)
        if failed(outcome):
            while os.read(self.queue, _CHUNK):
                pass
        return outcome

    def _serve(self, replies: int, write: int) -> None:
        """A worker: it takes tasks until the queue is empty and replies on
        `write`. It has a session of its own, so Ctrl-C reaches only the
        command, which ends its workers. It leaves through os._exit, with
        code 0 once the queue is empty and 1 after printing what it raised,
        so it never runs the caller's code after the fork or its exit
        handlers. Forking is meant for a process that runs no other thread,
        as a skelhar command does with BLAS on its default one thread."""
        code = 1
        try:
            os.setsid()
            os.close(replies)
            with open(write, "wb") as file:
                for n in self._take():
                    reply = pickle.dumps((n, self._finish(n)))
                    file.write(len(reply).to_bytes(_LENGTH, "little") + reply)
                    file.flush()
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)

    def collect(self, done: Callable[[int, object], None] = lambda n, outcome: None) -> list:
        """Take tasks until the queue is empty or a failure is known, unless
        workers were forked (tasks beyond the queue run here either way), and
        read the workers' replies until every task below the lowest failing
        one has succeeded; the workers' later tasks cannot change that, and
        leaving the `with` block ends them.

        Return the outcomes in task order, up to the lowest failing task's,
        which comes last. A task held by a worker that died fails with that
        worker's exit code. done(n, outcome) is called for each task that
        succeeded, in task order, as soon as every lower task has.
        """
        outcomes: dict[int, object] = {}
        stop = self.count  # the lowest failing task known
        reported = 0
        waiting = set(self.workers)

        def settle(n: int, outcome) -> None:
            nonlocal stop
            outcomes[n] = outcome
            if failed(outcome):
                stop = min(stop, n)

        def report() -> None:
            nonlocal reported
            while reported < stop and reported in outcomes:
                done(reported, outcomes[reported])
                reported += 1

        def receive(timeout: float | None) -> None:
            for fd in select.select(list(waiting), [], [], timeout)[0]:
                header = _read(fd, _LENGTH)
                size = int.from_bytes(header, "little")
                reply = _read(fd, size)
                if len(header) < _LENGTH or len(reply) < size:
                    waiting.remove(fd)  # the worker has exited
                else:
                    settle(*pickle.loads(reply))
            report()

        for n in itertools.chain(() if self.workers else self._take(), self.unqueued):
            if n > stop:
                break
            settle(n, self._finish(n))
            receive(0)
        while waiting and reported < stop:
            receive(None)
        if reported < stop:  # every worker has exited; one that died held this task
            code = next(filter(None, map(self._wait, self.workers.values())))
            settle(reported, f"its worker stopped with exit code {code}")
        return [outcomes[n] for n in range(min(stop + 1, self.count))]
