import multiprocessing.pool
import os
import sys

import pytest

from rotgp.fork import fork_map


def _noisy(item):
    """Print to both streams, then fail on item 2."""
    print(f"out {item}")
    print(f"err {item}", file=sys.stderr)
    if item == 2:
        raise ValueError(f"bad item {item}")
    return item * 10


def test_first_error_and_printed_text_match_the_loop(capsys):
    printed = {}
    for processes in (1, 2):
        with pytest.raises(ValueError, match="bad item 2") as info:
            fork_map(_noisy, list(range(4)), processes)
        printed[processes] = capsys.readouterr()
        if processes == 2:
            # raised here from the worker's pickled error, whose cause is
            # the worker's own traceback text
            cause = info.value.__cause__
            assert isinstance(cause, multiprocessing.pool.RemoteTraceback)
            assert "_noisy" in str(cause) and "bad item 2" in str(cause)
    assert printed[2].out == "out 0\nout 1\nout 2\n"
    assert printed[2].err == "err 0\nerr 1\nerr 2\n"
    assert printed[2] == printed[1]


def test_each_worker_gets_one_contiguous_block():
    pids = fork_map(lambda item: os.getpid(), list(range(6)), 3)
    assert pids[0::2] == pids[1::2]
    assert len(set(pids)) == 3


def _fail_then_die(item):
    """Print, then fail on item 1 and exit without results on item 2."""
    print(f"out {item}")
    if item == 1:
        raise ValueError(f"bad item {item}")
    if item == 2:
        os._exit(1)
    return item


def test_dead_worker_after_a_failure_reports_the_failure(capsys):
    # As in the loop: the text of items 0 and 1, then item 1's error, though
    # the worker holding item 2 died without its results.
    with pytest.raises(ValueError, match="bad item 1"):
        fork_map(_fail_then_die, list(range(4)), 2)
    assert capsys.readouterr().out == "out 0\nout 1\n"


def test_lone_dead_worker_raises():
    with pytest.raises(RuntimeError,
                       match="a worker process exited without its results"):
        fork_map(_fail_then_die, [0, 2], 2)
