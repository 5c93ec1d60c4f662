import multiprocessing.pool
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
