"""Traced stand-in for the `handsoff` console script (traced cli_solve passes).

    python3 cli_child.py SPANS_JSON SPAWN_TIME solve --input ... --out ... --csv ...

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process; perf_counter reads the system-wide monotonic clock on Linux, so
the gap to this script's first line is interpreter start-up.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

spans_path, spawned, *argv = sys.argv[1:]
before_import = time.perf_counter()
import handsoff.cli  # noqa: E402

imported = time.perf_counter()
tracer = Tracer()
tracer.install()
code = handsoff.cli.main(argv)
tracer.remove()
tracer.spans += [["cli.interpreter", float(spawned), started, None, None, None],
                 ["cli.import", before_import, imported, None, None, None]]
with open(spans_path, "w") as fh:
    json.dump(tracer.spans, fh)
sys.exit(code)
