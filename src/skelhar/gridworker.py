"""A grid cell's run, and the worker process that runs cells for `skelhar grid`.

run_cell is the only code that runs and times a cell; on one CPU `skelhar
grid` calls it in its own process. `python -m skelhar.gridworker` reads
pickled (config, matrix) requests on stdin until stdin closes, and answers
each on its stdout with run_cell's outcome; matrix is None for a cell that
uses the worker's last matrix. It imports the package but not the CLI, and
it is a plain subprocess: a `multiprocessing` spawn child would also import
the parent's main module and start a resource-tracker process, which made
it start about 0.15 s later on a 2-core machine.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from typing import BinaryIO

from .evaluation import PipelineConfig, run_matrix_experiment
from .features import FeatureMatrix


def run_cell(config: PipelineConfig, matrix: FeatureMatrix) -> tuple[float, float, float] | str:
    """(cv accuracy, validation accuracy, seconds) of one cell's experiment,
    or the error text of a cell whose experiment raised."""
    start = time.perf_counter()
    try:
        result = run_matrix_experiment(config, matrix)
    except (ValueError, RuntimeError) as exc:
        return str(exc)
    return (result.cv_report.overall_accuracy, result.report.overall_accuracy,
            time.perf_counter() - start)


def serve(requests: BinaryIO, replies: BinaryIO) -> None:
    """Answer each request on `requests` in order, until it reaches EOF."""
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


if __name__ == "__main__":
    # replies get a descriptor of their own, and anything printed goes to
    # stderr, so that no stray output can corrupt a reply
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    serve(sys.stdin.buffer, replies)
