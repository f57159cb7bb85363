import errno
import os
import time

import pytest

from skelhar.gridworker import Tasks


def test_tasks_past_the_first_1024_run_once_each_on_the_workers(tmp_path):
    def run(n):
        os.write(log, n.to_bytes(4, "little"))
        return n, os.getpid()

    command = os.getpid()
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        with Tasks(2000, run, 2) as tasks:
            outcomes = tasks.collect()
    finally:
        os.close(log)
    assert [n for n, _ in outcomes] == list(range(2000))
    ran = (tmp_path / "log").read_bytes()
    assert sorted(int.from_bytes(ran[i:i + 4], "little")
                  for i in range(0, len(ran), 4)) == list(range(2000))
    # two or more workers: this process runs no task
    assert command not in {pid for _, pid in outcomes}


def test_a_failing_task_comes_last_and_no_later_task_starts():
    def run(n):
        ran.append(n)
        return "broke" if n == 3 else n

    ran, done = [], []
    with Tasks(10, run) as tasks:
        outcomes = tasks.collect(lambda n, outcome: done.append((n, outcome)))
    assert outcomes == [0, 1, 2, "broke"]
    assert ran == [0, 1, 2, 3]
    assert done == [(0, 0), (1, 1), (2, 2)]


def test_each_outcome_is_done_while_the_workers_still_run(tmp_path):
    def run(n):
        if n == 1:  # until task 0 is done
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return marker.exists()

    marker, deadline = tmp_path / "task 0 done", time.monotonic() + 60
    with Tasks(2, run, 2) as tasks:
        outcomes = tasks.collect(lambda n, outcome: marker.touch())
    assert outcomes == [False, True]


def test_more_workers_than_cores_run_each_task_once(tmp_path):
    def run(n):
        os.write(log, n.to_bytes(4, "little"))
        return n

    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    start = time.monotonic()
    try:
        with Tasks(3000, run, min(len(os.sched_getaffinity(0)), 16) + 1) as tasks:
            outcomes = tasks.collect()
    finally:
        os.close(log)
    assert outcomes == list(range(3000))
    ran = (tmp_path / "log").read_bytes()
    assert sorted(int.from_bytes(ran[i:i + 4], "little")
                  for i in range(0, len(ran), 4)) == list(range(3000))
    assert time.monotonic() - start < 30


def test_a_fork_that_fails_ends_the_workers_already_forked(monkeypatch):
    def second_fails():
        if forks:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(BlockingIOError):
        Tasks(3, lambda n: time.sleep(60), 2)
    # the autouse fixture checks that the first worker was ended and waited for
    assert len(forks) == 1
