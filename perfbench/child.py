"""Run one spcelab CLI command in this fresh interpreter and record its timings.

Usage: ``python3 child.py REPORT.json SPCELAB_ARGS...``

Equivalent to the ``spcelab`` console script, plus a JSON report with
``time.monotonic()`` stamps (a system-wide clock, comparable with the
parent's) taken after ``import spcelab.cli`` and after ``main()`` returns.
When ``PERFBENCH_SPANS`` names a file, the spcelab layers are traced in
process and their spans are written there.  Only modules the interpreter has
already loaded are imported before spcelab, so the import is timed as a user
pays it.
"""

import os
import sys
import time


def run():
    report_path, argv = sys.argv[1], sys.argv[2:]
    spans_path = os.environ.get("PERFBENCH_SPANS")
    import spcelab.cli
    imported = time.monotonic()
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer.install()
    main_start = time.monotonic()
    code = spcelab.cli.main(argv)
    main_end = time.monotonic()

    import json
    if tracer is not None:
        tracer.dump(spans_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "main_start": main_start, "main_end": main_end,
                   "peak_rss_kb": peak_rss_kb(), "module": spcelab.cli.__file__}, fh)
    return code


def peak_rss_kb():
    """This process's own peak resident set (VmHWM).

    ``ru_maxrss`` would also count the parent's resident set at spawn time,
    which Linux carries into the exec'd process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(run())
