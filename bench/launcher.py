"""Run commands for the benchmark and report their peak memory.

A child's recorded peak resident set includes the image of the process
that spawned it, so commands whose memory is measured are spawned from
this small interpreter rather than from the benchmark process.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "timeout": seconds}``, answered by one JSON line on
standard output, ``{"code": int, "stdout": str, "children_maxrss_kib": int}``,
where the last field is the largest peak of any command run so far
(including the processes those commands waited for).  Exits at end of input.
"""

import json
import os
import resource
import signal
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.Popen(request["argv"], stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=request["timeout"])
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps({"code": proc.returncode, "stdout": stdout,
                          "children_maxrss_kib": peak}), flush=True)


if __name__ == "__main__":
    main()
