"""Run the cli workload's commands from a small process of their own.

    python3 bench/spawner.py

Reads one JSON argv list per line on standard input, runs it, and
writes one JSON line ``[exit code, stdout, stderr]``.  At the end of
input it writes the peak resident memory, in KiB, of the commands it
ran.

A process that starts another carries its own peak memory into the
other's ``ru_maxrss``.  Started from the benchmark, each command would
report the benchmark's memory whenever that is the larger; started from
this process, which holds almost nothing, each reports its own.
"""

import json
import resource
import subprocess
import sys

for line in sys.stdin:
    proc = subprocess.run(json.loads(line), capture_output=True, text=True)
    print(json.dumps([proc.returncode, proc.stdout, proc.stderr]), flush=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
