"""Run one cnl4 command with layer spans recorded.

    python3 bench/cli_child.py SPANS_FILE ARG...

Behaves like ``python3 -m cnl4.cli ARG...`` (same output and exit code,
including a traceback if the command crashes) and writes the spans to
SPANS_FILE: the import of ``cnl4.cli``, ``run(argv)``, and every layer
entry point ``tracing.PROGRAM_ENTRY_POINTS`` names.
"""

import sys
import time

from tracing import Tracer

tracer = Tracer()
start = time.perf_counter()
import cnl4.cli  # noqa: E402  (the import is what is being timed)
tracer.add("cli.import", "cli", start, time.perf_counter())
tracer.install()
run = tracer.wrap("cnl4.cli.run", "cli", cnl4.cli.run)
try:
    code = run(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
