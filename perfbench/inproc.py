"""Run one workload's ops inside this interpreter through ``nugamma.cli.run``.

    python perfbench/inproc.py <spec.json> <result.json>

The spec names the package source directory, the ops (name and argv)
and whether to install the tracing hooks.  Hooks go in after ``import
nugamma.cli`` and before the first op, so import cost stays out of the
spans.  The result holds each op's wall time and exit code, the hook
statistics and the hooks that could not be installed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import nugamma.cli as cli

    rec, missing = None, {}
    if spec["trace"]:
        import tracer

        rec = tracer.Recorder()
        missing = tracer.install(rec)

    ops = []
    for name, argv in spec["ops"]:
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a dead pass
            code = f"uncaught {type(exc).__name__}: {exc}"
        ops.append({"name": name, "wall_s": time.perf_counter() - t0, "code": code})

    result = {
        "ops": ops,
        "stats": {k: asdict(v) for k, v in rec.stats.items()} if rec else {},
        "missing": missing,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
