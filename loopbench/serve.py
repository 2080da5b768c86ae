"""Server launcher of the loopback benchmark.

Runs the public `epvr serve` command on an OS-chosen loopback port. With
--spans it first installs the span tracer (tracer.py), so every session
the server opens is traced, and after the server has shut down it removes
the wrappers and writes the spans out.

Stop it with SIGINT: `epvr serve` then closes the server and returns, and
this launcher writes --status, a JSON object with the peak RSS of the
process and, when traced, whether every wrapper was removed.

    python3 loopbench/serve.py --models REGISTRY.json --status OUT.json [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from epvr import cli  # noqa: E402

import tracer as tracing  # noqa: E402


def peak_rss_mb():
    """Peak RSS of this process image. Not ru_maxrss: Linux carries the
    parent's peak across fork and exec into it, so it would report the
    benchmark's own size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", required=True, help="model registry JSON file")
    parser.add_argument("--status", required=True, help="write the exit status JSON here")
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        code = cli.main(["serve", "--addr", "127.0.0.1:0", "--models", args.models])
    except KeyboardInterrupt:  # SIGINT before `epvr serve` entered its wait loop
        code = 0
    status = {"exit": code, "max_rss_mb": peak_rss_mb()}
    if tracer is not None:
        status["wrappers_removed"] = tracer.uninstall()
        tracer.dump(args.spans)
    with open(args.status, "w") as fh:
        json.dump(status, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
