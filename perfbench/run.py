"""Benchmark of lieinv: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every measured round runs the whole workload once in a fresh
single-threaded interpreter (``worker.py``).  Rounds run one after another
while the next one still fits in ``--seconds`` (the first always runs).
The first round's outputs are checked against results the benchmark
computes itself (``checks.py``), after its clock stops; every later round
must give the same output bytes.

``--trace 0`` prints the end-to-end metrics, medians over the rounds:

* ``setup_s``: interpreter start, ``import lieinv`` and building the inputs,
  up to the first program call; the median also takes in the set-up-only
  probes run after each round (at least fifteen);
* ``wall_s``: first program call to the last result;
* ``peak_rss_mb``: peak resident set of the round's process.

Both times are taken at the reference processor speed: each raw time is
multiplied by the speed ``speed.py`` samples in the same process, so that
the host's slow and fast spells do not show as changes of the program.

``--trace 1`` alternates an untraced and a traced round and prints the
per-layer metrics of ``tracer.py`` (medians over the traced rounds), plus
``trace.*``: the untraced and traced ``wall_s`` and their difference, the
tracing overhead.  Both kinds of round must produce the same output bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the per-round detail
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("reproduce_all", "derive_sweep", "covariant_roundtrip")
SETUP_PROBES = 15
DEADLINE_S = 170.0  # every run must end within 180 s


class RoundFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def spawn(workload: str, seed: int, mode: str, check: bool,
          deadline: float) -> dict:
    """Start one worker, wait for it, and return its report plus setup_s."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, str(int(check))],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"{mode} round of {workload} ran past the deadline")
    if proc.returncode != 0:
        raise RoundFailed(f"{mode} round of {workload} exited with "
                          f"{proc.returncode}:\n{err[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["raw_setup_s"] = report.pop("first_call") - start
    report["setup_s"] = report["raw_setup_s"] * report["setup_speed"]
    report["mode"] = mode
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds one after another while the next one fits in `seconds`.

    The first round always runs, and it alone is checked; every later round
    must reproduce its output digest.  A traced run alternates untraced and
    traced rounds.
    """
    deadline = time.monotonic() + DEADLINE_S
    modes = ("round", "traced") if trace else ("round",)
    begin = time.monotonic()
    rounds, probes, longest = [], [], 0.0
    while not rounds or time.monotonic() - begin + longest <= seconds:
        started = time.monotonic()
        for mode in modes:
            rounds.append(spawn(workload, seed, mode, not rounds, deadline))
        longest = max(longest, time.monotonic() - started)
        if not trace:
            probes.append(spawn(workload, seed, "probe", False, deadline))
    while not trace and len(probes) < SETUP_PROBES:
        probes.append(spawn(workload, seed, "probe", False, deadline))
    plain = [r for r in rounds if r["mode"] == "round"]
    traced = [r for r in rounds if r["mode"] == "traced"]

    problems = list(rounds[0]["problems"])
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds with the same inputs gave different outputs")
    for name in sorted({n for r in rounds for n in r["untraced_functions"]}):
        problems.append(f"traced function {name} was not found in lieinv")
    def median(key, group):
        return statistics.median([r[key] for r in group])

    if trace:
        layers = {key: statistics.median([r["layers"][key] for r in traced])
                  for key in traced[0]["layers"]}
        untraced, with_trace = median("wall_s", plain), median("wall_s", traced)
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.traced_wall_s"] = with_trace
        layers["trace.overhead_s"] = with_trace - untraced
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": median("setup_s", rounds + probes), "unit": "s"},
            "wall_s": {"value": median("wall_s", plain), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", plain), "unit": "MB"},
        }
    result = {
        "correct": not problems,
        # every round gives the same outputs (digest above), so one stands
        # for all, and the counts do not depend on how many rounds fit
        "attempted": rounds[0]["attempted"],
        "failed": rounds[0]["failed"],
        "metrics": metrics,
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "problems": problems,
              "rounds": rounds, "probes": probes, "result": result}
    return result, detail


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ms"):
        return "ms"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lieinv", "__init__.py")):
        print(f"error: no lieinv sources under {os.path.join(ROOT, 'src')}; "
              f"run from the root of a lieinv checkout", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
