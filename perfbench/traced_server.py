"""``python -m repro.server`` with spans recorded around each layer's public functions.

    python perfbench/traced_server.py --spans spans.json -- --port 0 --snapshot db.frdb

Everything after ``--`` goes to the server unchanged.  The spans are kept
in memory and written to ``--spans`` once the server has drained.
"""

from __future__ import annotations

import sys

import spantrace


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_server.py --spans FILE -- SERVER-ARGS...",
              file=sys.stderr)
        return 2
    from repro.server import __main__ as server_main

    recorder = spantrace.SpanRecorder(spantrace.SERVER_ROOT)
    missing, __ = spantrace.install(recorder, spantrace.SERVER_TARGETS)
    if missing:
        print(f"spans not recorded for {missing}", file=sys.stderr)
    code = server_main.main(argv[3:])
    recorder.dump(argv[1], missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
