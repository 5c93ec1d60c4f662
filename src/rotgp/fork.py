"""``fork_map``: a list comprehension run in forked worker processes, whose
results, errors and printed text reach the caller as from the loop."""

import contextlib
import ctypes
import io
import multiprocessing
import multiprocessing.pool
import os
import signal
import sys

_PR_SET_PDEATHSIG = 1  # prctl option from <linux/prctl.h>
_STOP_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def usable_cpus() -> int:
    """CPUs this process may run on (respects ``taskset``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _init_worker() -> None:
    """Workers die with their parent (Linux) and on SIGTERM, and leave
    SIGINT to the parent, whose cleanup then terminates them.

    The parent-death signal also covers a parent killed by SIGKILL. Its
    result is not checked: a worker that cannot set it still does its work.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if os.getppid() != multiprocessing.parent_process().pid:
            os._exit(1)  # the parent died before the signal was set
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _run_block(fn, items: list, conn) -> None:
    """Worker body: ``fn`` over ``items`` up to the first error, sent back as
    one message of ``(result, error, stdout, stderr)`` per item, with the
    text the item printed; the error carries the worker's traceback text as
    its cause once it reaches the parent."""
    _init_worker()
    outcomes = []
    for item in items:
        stdout, stderr = io.StringIO(), io.StringIO()
        result, error = None, None
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                result = fn(item)
            except Exception as exc:
                error = multiprocessing.pool.ExceptionWithTraceback(
                    exc, exc.__traceback__)
        outcomes.append((result, error, stdout.getvalue(), stderr.getvalue()))
        if error is not None:
            break
    conn.send(outcomes)
    conn.close()


def fork_map(fn, items: list, processes: int) -> list:
    """``[fn(item) for item in items]``, computed in up to ``processes``
    forked workers, each given one contiguous block of ``items``. Each
    item's printed text is written here, stderr then stdout, in input order,
    up to and including the first failing item, whose error is then raised,
    as in the loop. A worker that exits without its results fails its
    block's first item with a ``RuntimeError`` that prints nothing and
    carries that item as ``item``, so a failure in an earlier block is still
    the one raised.

    With one process, or inside a worker (which is daemonic and may not
    start children), ``fn`` runs in this process and prints as it goes.
    Fork, not spawn: workers start without re-importing numpy and scipy
    (about 0.7 s each), and ``fn`` and the blocks reach them through the
    fork, unpickled. The parent runs no threads of its own when it forks.
    Each worker returns its block over its own pipe, so no large message
    waits in a shared task queue: ``multiprocessing.Pool`` could hang in
    ``terminate`` while its task thread was blocked sending a chunk into a
    full pipe.
    """
    processes = min(processes, len(items))
    if processes == 1 or multiprocessing.current_process().daemon:
        return [fn(item) for item in items]
    sys.stdout.flush()  # a forked worker would otherwise repeat buffered text
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    bounds = [len(items) * k // processes for k in range(processes + 1)]
    workers = []
    # Python's default SIGTERM action would skip the cleanup below, which
    # terminates the workers; as SystemExit it runs.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        # A handler that raises inside the fork's at-fork callbacks is
        # ignored, so the stop signals wait until the workers have started.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_run_block,
                                       args=(fn, items[lo:hi], writer),
                                       daemon=True)
                proc.start()
                writer.close()
                workers.append((proc, reader, items[lo]))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = []
        for _, reader, first in workers:
            try:
                outcomes += reader.recv()
            except EOFError:  # its block's first item stands for the block
                error = RuntimeError("a worker process exited without its "
                                     "results")
                error.item = first
                outcomes.append((None, error, "", ""))
    except BaseException:
        for proc, _, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, reader, _ in workers:
            proc.join()
            reader.close()
        signal.signal(signal.SIGTERM, previous)
    results = []
    for result, error, stdout, stderr in outcomes:
        sys.stderr.write(stderr)
        sys.stdout.write(stdout)
        if error is not None:
            raise error
        results.append(result)
    return results
