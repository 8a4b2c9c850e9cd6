"""One verb process of the benchmark.

Runs a job's CLI invocations one after another through
``shifted_crystals.cli.run`` in this fresh interpreter, so the operator
caches start cold, then writes a result file with, per invocation, the exit
code, the sha256 of its output, the seconds the call took and whether the
output means what it should.  With tracing on it also writes the spans.

Usage: python3 child.py JOB.json
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

RUNTIME_LINE = re.compile(rb"^runtime: [0-9.]+s\n", re.MULTILINE)


def digest(verb: str, data: bytes) -> str:
    """sha256 of an output; ``check`` prints its runtime, which is removed."""
    if verb in ("check", "refute"):
        data = RUNTIME_LINE.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def meaningful(verb: str, code: int, data: bytes) -> bool:
    """The gate on meaning, beyond the golden digest: certification really
    certifies and an expansion really satisfies its identity."""
    if verb == "check":
        return code == 0 and b"\ntotal violations: 0\n" in data
    if verb == "expand":
        try:
            return json.loads(data)["identity_ok"] is True
        except (ValueError, KeyError, TypeError):
            return False
    return True


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    os.sched_setaffinity(0, {job["cpu"]})
    import shifted_crystals
    from shifted_crystals import cli

    src = Path(job["src"]).resolve()
    if src not in Path(shifted_crystals.__file__).resolve().parents:
        print(f"error: imported {shifted_crystals.__file__}, not the copy in {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()

    verb = job["verb"]
    results = []
    for k, inv in enumerate(job["invocations"]):
        out_file = Path(inv["out"])
        out_file.parent.mkdir(parents=True, exist_ok=True)
        # an output left by an earlier round must not pass for this one
        out_file.unlink(missing_ok=True)
        if tracer is not None:
            tracer.trace_id = k
        start = time.perf_counter()
        code = cli.run(inv["argv"])
        seconds = time.perf_counter() - start
        try:
            data = out_file.read_bytes()
        except OSError:
            data = b""
        results.append([code, digest(verb, data), seconds, meaningful(verb, code, data)])

    out = {
        "ready": ready,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
