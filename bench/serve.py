"""Server process for the short-sessions workload.

    python3 bench/serve.py FIXTURE_DIR TRACE

Loads the black-box and base-proxy snapshots from FIXTURE_DIR, serves them
on a free loopback port through ``offsetlm.SocketServer`` and prints
``ready <port>``. When its standard input reaches end of file it stops
listening, waits for open connections to finish and prints one JSON line:
its peak resident set size and, when TRACE is 1, its span aggregates.
``offsetlm`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
import threading
from pathlib import Path

from offsetlm import Server, SocketServer, load_model

import tracing


def main(argv: list[str]) -> int:
    fixture_dir = Path(argv[1])
    tracer = tracing.Tracer() if argv[2] == "1" else None
    blackbox = load_model(fixture_dir / "blackbox.prdm")
    proxy = load_model(fixture_dir / "proxy.prdm")
    if tracer is not None:
        tracing.install(tracer, socket_side="server")
        blackbox = tracing.TracedModel(blackbox, "models.blackbox_forward", tracer)
        proxy = tracing.TracedModel(proxy, "models.proxy_forward", tracer)
    front = SocketServer(Server(blackbox, proxy)).start()
    print(f"ready {front.address[1]}", flush=True)
    sys.stdin.read()
    front.close()
    # Connection threads end when their client disconnects; the benchmark
    # closes every connection before it closes our stdin.
    for thread in threading.enumerate():
        if "serve_connection" in thread.name:
            thread.join(timeout=10)
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.aggregates() if tracer is not None else {},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
