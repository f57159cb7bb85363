import os
import time

from skelhar.gridworker import Tasks


def test_tasks_past_the_first_1024_run_once_each_on_a_worker_too(tmp_path):
    def run(n):
        os.write(log, n.to_bytes(4, "little"))
        if os.getpid() != command:
            if n >= 1024:
                marker.touch()
        elif not first:  # hold this process until the worker has run a task past 1,024
            first.append(n)
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return n, os.getpid()

    command, marker, first = os.getpid(), tmp_path / "past 1024", []
    deadline = time.monotonic() + 60
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        with Tasks(2000, run) as tasks:
            tasks.fork(1)
            outcomes = tasks.collect()
    finally:
        os.close(log)
    assert [n for n, _ in outcomes] == list(range(2000))
    ran = (tmp_path / "log").read_bytes()
    assert sorted(int.from_bytes(ran[i:i + 4], "little")
                  for i in range(0, len(ran), 4)) == list(range(2000))
    assert max(n for n, pid in outcomes if pid != command) >= 1024


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
    with Tasks(2, run) as tasks:
        tasks.fork(2)
        outcomes = tasks.collect(lambda n, outcome: marker.touch(), take=False)
    assert outcomes == [False, True]


def test_more_workers_than_cores_run_each_task_once(tmp_path):
    def run(n):
        os.write(log, n.to_bytes(4, "little"))
        return n

    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    start = time.monotonic()
    try:
        with Tasks(3000, run) as tasks:
            tasks.fork(min(len(os.sched_getaffinity(0)), 16) + 1)
            outcomes = tasks.collect()
    finally:
        os.close(log)
    assert outcomes == list(range(3000))
    ran = (tmp_path / "log").read_bytes()
    assert sorted(int.from_bytes(ran[i:i + 4], "little")
                  for i in range(0, len(ran), 4)) == list(range(3000))
    assert time.monotonic() - start < 30
