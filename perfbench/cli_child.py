"""``python -m specht ARGS`` with the library's layer boundaries traced.

Used by the traced cli_session pass in place of ``python -m specht``.  Stdout
and the exit code are the CLI's own; the spans, counts and the import time
go to stderr as one line starting with tracing.TRACE_MARKER.
"""

import json
import sys
import time

from tracing import TRACE_MARKER, Tracer


def main() -> int:
    start = time.perf_counter()
    import specht.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return specht.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        payload = {
            "import_s": import_s,
            "self": tracer.self_times(),
            "counts": tracer.counts,
            "spans": tracer.spans,
        }
        print(TRACE_MARKER + json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
