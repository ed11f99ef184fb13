"""Run one rbfilter CLI command with the benchmark's tracing wrappers installed.

Usage: python bench/cli_shim.py TOTALS.json <rbfilter cli arguments...>

The wrappers go in before ``rbfilter.cli`` is imported, so the names it binds
at import are the wrapped ones.  The span totals, with the import time, are
written to TOTALS.json; the exit code is the CLI's own.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        import rbfilter.cli

        import_s = time.perf_counter() - t0
        code = rbfilter.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.totals(), import_s=import_s), fh)
    sys.exit(code)
