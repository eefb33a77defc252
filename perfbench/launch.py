"""Run one ``repro-campaign`` command and report when it was ready and done.

Usage::

    python3 perfbench/launch.py TIMING_JSON [--trace TRACE_JSON [--job ID]] \\
        -- <repro-campaign arguments>

The process imports ``repro.cli`` (the set-up every CLI call pays),
optionally installs :mod:`tracer` wrappers (with ``--job``, inside one
root span of that job id), calls ``repro.cli.main``
with the given arguments exactly as the ``repro-campaign`` console
script does, and writes ``TIMING_JSON``::

    {"ready": ..., "start": ..., "done": ..., "rc": ..., "maxrss_kb": ...}

Times are ``time.monotonic()`` readings, which on Linux share one clock
across processes, so the parent can subtract its own launch time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _write(path: str, data: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


def main(argv) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1 :]
    timing_path = options[0]
    trace_path = options[options.index("--trace") + 1] if "--trace" in options else None
    job = options[options.index("--job") + 1] if "--job" in options else None

    import repro.cli

    timing = {"ready": time.monotonic()}
    tracer = None
    if trace_path is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    timing["start"] = time.monotonic()
    rc = 1
    try:
        if job is None:
            rc = repro.cli.main(cli_args)
        else:
            with tracer.job_span(job):
                rc = repro.cli.main(cli_args)
    finally:
        timing["done"] = time.monotonic()
        timing["rc"] = rc
        timing["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.dump(trace_path)
        _write(timing_path, timing)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
