"""Start benchmark children from a small process; report wall time and peak RSS.

Linux keeps a process's peak RSS across exec, and a child forked from a
large process starts out at that process's size. So ``wait4`` on a child
of run.py, which has numpy and bayeslens loaded, would report at least
run.py's own RSS. This process loads nothing but the standard library and
is started before run.py imports numpy, so the peak RSS that ``wait4``
gives for its children is their own.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "cwd",
"log"}``; one JSON reply per line on stdout, ``{"start", "end",
"maxrss_kb", "code"}``, with start and end on the monotonic clock. The
child's stderr goes to ``log``. SIGTERM kills the running child, if any,
and ends this process.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "maxrss_kb": usage.ru_maxrss,
                 "code": proc.returncode}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
