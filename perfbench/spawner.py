"""Start commands on request and report how each one ended.

Reads one command (a JSON list) per line on stdin, runs it to completion
with stdout and stderr merged, and answers with one JSON line:
``{"code": exit status, "out": output, "maxrss_kb": peak RSS}``.

The benchmark starts CLI calls through this small process rather than
directly because on Linux a child inherits, at exec, the peak RSS of the
address space it replaces; started from the benchmark process, every CLI
call would report at least the benchmark's own peak.
"""

import json
import os
import subprocess
import sys


def main():
    for line in sys.stdin:
        proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            out = proc.stdout.read().decode("utf-8", "replace")
        # reap the child here rather than in Popen, to read its resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "out": out, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
