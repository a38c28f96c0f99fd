"""One fresh process running a workload: set-up, then at most one pass.

    python3 perfbench/child.py <workload> <seed> setup|pass|traced

Imports tailwalk from ``src/`` and builds the workload's graphs, then
prints "ready"; ``run.py`` times the process from spawn to that line for
``setup_s``.  With ``pass`` or ``traced`` it then runs the job list once,
timed job by job, checks the outputs untimed and prints the result as one
JSON line.  ``traced`` installs the spans of ``spans.py`` before set-up and
adds the per-layer metrics of the set-up and the timed jobs.  Each pass
has a process of its own, so nothing one pass leaves in memory can speed
up the next: every pass costs what a user's one CLI run or script costs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench-out"


def load_tailwalk():
    if not (SRC / "tailwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailwalk sources at {SRC / 'tailwalk'}")
    sys.path.insert(0, str(SRC))
    import tailwalk

    if Path(tailwalk.__file__).resolve().parent != (SRC / "tailwalk").resolve():
        raise SystemExit(f"error: imported tailwalk from {tailwalk.__file__}, not {SRC}")
    return tailwalk


def main(workload: str, seed: int, mode: str) -> int:
    load_tailwalk()
    from workloads import WORKLOADS, Tally, build_graphs

    tracer = None
    if mode == "traced":
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
    graphs = build_graphs(workload)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    jobs = WORKLOADS[workload](seed, graphs)
    out = OUT / workload / f"{mode}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results, times = [], []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            results.append(job.run(out / job.name))
        except Exception as exc:  # a crash is a failed job, reported, never retried
            traceback.print_exc()
            results.append(exc)
        times.append(time.perf_counter() - t0)
    # set-up plus the timed jobs; the checks below are the benchmark's own work
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = layer_metrics(tracer) if tracer else None

    tally = Tally()
    for job, res in zip(jobs, results):
        if isinstance(res, Exception):
            tally.problems.append(f"{job.name}: {type(res).__name__}: {res}")
            for _ in range(job.ops):
                tally.op(False, f"{job.name} raised {type(res).__name__}")
        else:
            job.check(res, out / job.name, tally)
    shutil.rmtree(out)
    print(json.dumps({"job_times": {j.name: t for j, t in zip(jobs, times)},
                      "rss_mb": rss_mb, "layers": layers, **dataclasses.asdict(tally)}))
    return 0


if __name__ == "__main__":
    workload, seed, mode = sys.argv[1:]
    if mode not in ("setup", "pass", "traced"):
        raise SystemExit(f"error: unknown mode {mode!r}")
    sys.exit(main(workload, int(seed), mode))
