"""Starts the benchmark's rotgp commands from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the peak resident size of the
process it was forked from. Forked straight from ``run.py``, which holds
numpy and the reference arrays, every rotgp command would report the
runner's memory instead of their own. This process imports nothing large, so
the peak of each command it starts is that command's own.

``run.py`` starts it with the children's environment and working directory,
and writes one JSON request per line to its stdin: ``{"argv": [...], "log":
path}``. It runs each command to completion and answers with one JSON line,
``{"code": exit code, "maxrss_kb": ru_maxrss}``. It exits when stdin closes;
on SIGTERM it kills and reaps the running command first.
"""

import json
import os
import signal
import subprocess
import sys

_running = None


def _stop(signum, frame):
    if _running is not None:
        _running.kill()
        _running.wait()
    sys.exit(128 + signum)


def main() -> None:
    global _running
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            _running = subprocess.Popen(request["argv"], stdout=log,
                                        stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(_running.pid, 0)
            _running.returncode = os.waitstatus_to_exitcode(status)
            _running = None
        print(json.dumps({"code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
