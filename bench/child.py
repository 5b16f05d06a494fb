"""One benchmark run in a fresh process: ``python -m bench.child``.

Sets up one workload, runs its measured phase once, and prints the run
record as one JSON line.  ``--t0`` is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` includes
interpreter start and imports.  With ``--trace FILE`` the layers' entry
points are wrapped before set-up, the per-layer metrics are added to the
record and the Chrome trace is written to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path


def run(workload: str, seed: int, t0: float, scale: float = 1.0,
        trace_path: str | None = None) -> dict:
    """Set up and measure ``workload`` once; the JSON-ready run record."""
    from bench.workloads import WORKLOADS

    tracer = None
    if trace_path is not None:
        from bench.trace import Tracer

        tracer = Tracer()
    try:
        if tracer is not None:
            tracer.install()
        measure = WORKLOADS[workload](seed, scale)
        start = time.monotonic()
        with tracer.root() if tracer is not None else nullcontext():
            outcome = measure()
        end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "setup_s": start - t0,
        "wall_s": end - start,
        "ops": outcome.ops,
        "requests": outcome.requests,
        "failed": outcome.failed,
        "advance_ms": outcome.advance_ms,
        "ckpt_ms": outcome.ckpt_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": outcome.fingerprint,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(advances=len(outcome.advance_ms))
        tracer.check_mapped(workload, layers)
        record["layers"] = layers
        Path(trace_path).write_text(tracer.chrome_trace())
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None,
                        help="write the Chrome trace here and add layers")
    parser.add_argument("--tmp", required=True,
                        help="directory for every temporary file of the run")
    args = parser.parse_args(argv)
    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = args.tmp
    record = run(args.workload, args.seed, args.t0, trace_path=args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
