"""Run one fejerlab CLI command under the tracer and write its trace.

Usage:
    python3 perfbench/traced_cli.py TRACE_JSON -- <fejerlab cli arguments>

Times ``import fejerlab.cli`` in this fresh interpreter, wraps the modules'
public functions (see ``tracer.py``), runs the command in-process and
writes the per-metric totals to TRACE_JSON.  The exit code is the
command's own.
"""

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import fejerlab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        rc = cli.main(cli_args)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
