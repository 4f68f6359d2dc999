"""One fresh interpreter: set up a workload, run it once, check it, report.

    python3 perfbench/worker.py WORKLOAD SEED {round,probe,traced} {0,1}

``probe`` stops after set-up; ``traced`` runs with the spans of
``tracer.py`` installed.  The last argument asks for the outputs to be
checked; ``run.py`` checks one round and compares the others' digests.
The last line of standard output is one JSON object:

* ``first_call``: ``time.monotonic()`` at the end of set-up (``run.py``
  subtracts its own clock reading taken before it started this process,
  which gives the raw set-up time); ``setup_speed``: the processor speed
  right after set-up (``speed.py``);
* ``raw_wall_s``: from the first program call to the last result, checks
  excluded; ``wall_speed``: the processor speed sampled over that time;
  ``wall_s``: ``raw_wall_s``, less the sampling chunks, times
  ``wall_speed``; ``peak_rss_mb``: ``ru_maxrss`` when the clock stops;
* ``attempted``, ``failed``, ``problems`` (checker findings, or null when
  not checked) and ``digest`` (SHA-256 of the outputs, to compare rounds);
* ``layers``: the per-layer metrics of a traced run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lieinv  # noqa: E402,F401 - import time is part of set-up

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, mode, check = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    inputs = workloads.MAKE[name](seed)
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    first_call = time.monotonic()
    setup_speed = speed.speed(speed.burst())
    if mode == "probe":
        print(json.dumps({"first_call": first_call, "setup_speed": setup_speed}))
        return 0
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    outputs = workloads.RUN[name](inputs)
    raw_wall = time.perf_counter() - start
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_speed = speed.speed(sampler.samples or speed.burst())
    layers = tracer.metrics() if tracer else None
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode())
    result = {
        "first_call": first_call, "setup_speed": setup_speed,
        "raw_wall_s": raw_wall, "wall_speed": wall_speed,
        "wall_s": (raw_wall - sampler.spent) * wall_speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outputs["attempted"], "failed": outputs["failed"],
        "problems": checks.CHECK[name](inputs, outputs) if check else None,
        "digest": digest.hexdigest(), "layers": layers,
        "untraced_functions": tracer.missing if tracer else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
