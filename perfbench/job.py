"""One invocation of a benchmark job: ``repro.cli.main(argv)`` in this process.

Usage::

    python3 perfbench/job.py RECORD JOB_ID TRACE -- ARGV...
    python3 perfbench/job.py RECORD          # set-up probe: import only

Imports ``repro.cli`` from the checkout's ``src/``, runs ``main(ARGV)`` and
writes RECORD, a JSON object with

* ``imported`` — the system-wide monotonic clock right after the import, so
  the parent can measure interpreter start-up plus import (``setup_s``);
* ``import_s`` — the import alone, timed inside this process;
* ``main_s`` — wall-clock of ``main(ARGV)``, which ends once the output file
  is written;
* ``rc`` — its exit code;
* ``spans`` — with TRACE=1, the spans of :mod:`tracing`, root ``cli.main``.
"""

import os
import sys
import time

began = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import repro.cli  # noqa: E402  (timed: this import is what setup_s measures)

imported = time.monotonic()
import_s = time.perf_counter() - began


def main() -> int:
    import json

    record = {"imported": imported, "import_s": import_s, "spans": []}
    if len(sys.argv) == 2:
        with open(sys.argv[1], "w") as handle:
            json.dump(record, handle)
        return 0
    record_path, job_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(job_id)
        tracer.install()
    started = time.perf_counter()
    try:
        if tracer is None:
            record["rc"] = repro.cli.main(argv)
        else:
            record["rc"] = tracer.call("cli.main", repro.cli.main, argv)
    finally:
        record["main_s"] = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
            record["spans"] = tracer.spans
        with open(record_path, "w") as handle:
            json.dump(record, handle)
    return 0 if record["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
