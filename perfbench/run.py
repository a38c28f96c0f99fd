"""tailwalk benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload scatter-crosscheck --seed 1 --seconds 48 --trace 0

Run from the root of a checkout; tailwalk is imported from ``src/`` there
and nowhere else.  The seed fixes the workload's inputs.  Every pass over
the job list runs in a fresh process (``child.py``), so no state carries
from one pass to the next.  The number of passes depends only on the
workload and ``--seconds`` (``PASS_S``), never on how fast the program
runs, so two commits are always measured with the same estimator.

Every process the benchmark starts, except the traced run's reference
pass, runs with ``OPENBLAS_NUM_THREADS=1`` (``PASS_ENV``); the CLI's own
thread pool keeps its default size.  Two
BLAS threads in each of two pool workers on a 2-vCPU host measured the
scheduler more than the program (README.md, "Noise").

``wall_s`` is the fastest pass time (best of the run's fixed number of
passes) and ``setup_s`` the median time from spawn to the end of set-up
over the pass processes; both are scaled to a reference host speed with
``calibrate`` (README.md, "Noise").  ``peak_rss_mb`` is the median peak
memory of the pass processes.  Every pass's outputs are checked, and the
tables it emits must hash the same in every pass.

With ``--trace 1`` untraced and traced passes alternate (see ``spans.py``),
followed by one traced reference pass with the BLAS threads users get
(``OPENBLAS_NUM_THREADS`` as this process found it); the per-layer
metrics (medians over the traced passes) are reported instead of the
end-to-end ones, with the tracing overhead as the difference of the two
sides' fastest pass times.

The last line of standard output is the result as JSON; the lines before
it are the same numbers for people, the environment and the table hashes.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
# Seconds of --seconds allotted to one pass; it turns --seconds into a pass
# count that later commits inherit unchanged (6, 6 and 8 passes at 48 s, which
# take 40-50 s at the seed commit on a 2-vCPU host, up to 80 s in a slow spell).
# cycle-sweep is not in BENCHMARK.json's workloads (README.md, "Workloads").
PASS_S = {"cycle-sweep": 8.0, "scatter-crosscheck": 8.0, "perturb-verify": 6.0}
WORKLOADS = tuple(PASS_S)
PASS_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
CAL_PER_PASS = 2
# Fastest calibrate() seen on that host in a quiet spell: the scaled times
# read in seconds of a host that runs calibrate() this fast.
CAL_REF_S = 0.077


# --------------------------------------------------------------------------
# environment block
# --------------------------------------------------------------------------

def _blas_threads() -> dict[str, int]:
    """Threads of the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy

    out = {}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            try:
                out[mod.__name__] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                pass
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def calibrate() -> float:
    """Seconds a fixed mix of interpreter loop and small-matrix numpy work takes.

    It runs in this process while no pass runs and calls no tailwalk code,
    so the program cannot change it; the fastest of a run's samples
    measures how fast the host was during that run.  The matrices are too
    small for BLAS to use a second thread.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    b, v = a[:8, :8], a[:8, 0]
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i
    for _ in range(3_000):
        np.linalg.solve(b, v)
    for _ in range(60):
        np.linalg.eigvals(a)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_in_passes": PASS_ENV["OPENBLAS_NUM_THREADS"],
        "QW_THREADS": os.environ.get("QW_THREADS"),
        "git_commit": _git_commit(),
    }




# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def spawn(workload: str, seed: int, mode: str, env: dict = PASS_ENV):
    """Run ``child.py``; return its set-up time (spawn to "ready") and result.

    A blocking read ends the timing; ``Popen.wait`` with a timeout polls
    every 50 ms and would quantize it.
    """
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def wall(result: dict) -> float:
    return sum(result["job_times"].values())


def _emit(spec: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "tailwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailwalk sources at {SRC / 'tailwalk'}")
    env = environment()
    n = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))

    def run(mode: str, **kw):
        return spawn(args.workload, args.seed, mode, **kw)

    setup, passes, traced = [], [], []
    if args.trace:
        for i in range(max(2, n // 2)):
            # alternate which side goes first, so a slow spell hits both alike
            for mode in (("pass", "traced") if i % 2 == 0 else ("traced", "pass")):
                (passes if mode == "pass" else traced).append(run(mode)[1])
        # tables from other BLAS thread counts may differ in the last bits: not compared
        _, blas_default = run("traced", env=dict(os.environ))
    else:
        run("setup")  # warms the file cache; not counted
        cal = [calibrate() for _ in range(CAL_PER_PASS)]
        for _ in range(n):
            s, result = run("pass")
            setup.append(s)
            passes.append(result)
            cal += [calibrate() for _ in range(CAL_PER_PASS)]
        speed = CAL_REF_S / min(cal)

    checked = passes + traced
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    problems = [q for r in checked for q in r["problems"]]
    if any(r["tables"] != checked[0]["tables"] for r in checked):
        problems.append("emitted tables differ between passes of one seed")
    fastest = min(wall(r) for r in passes)

    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.wall_s"] = min(wall(r) for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - fastest
        values["internal_spectral.decompose_s.blas_default"] = (
            blas_default["layers"]["internal_spectral.decompose_s"])
        metrics = _emit(spec["per_layer"], values)
    else:
        values = {
            "setup_s": statistics.median(setup) * speed,
            "wall_s": fastest * speed,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
            "ok_frac": 1.0 - failed / attempted,
            "accuracy_digits": -math.log10(max(max(r["worst"] for r in checked), 1e-17)),
        }
        metrics = _emit(spec["end_to_end"], values)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes"
          f"{f' + {len(traced)} traced + 1 traced with the default BLAS threads' if traced else ''},"
          " each in its own process")
    for label, runs in (("untraced", passes), ("traced", traced)):
        if runs:
            print(f"{label} pass walls (s): " + ", ".join(f"{wall(r):.4f}" for r in runs)
                  + f"; fastest {min(wall(r) for r in runs):.4f}"
                  + f", median {statistics.median(wall(r) for r in runs):.4f}")
            for job in runs[0]["job_times"]:
                print(f"  {job}: " + ", ".join(f"{r['job_times'][job]:.4f}" for r in runs))
    if setup:
        print("set-up times (s): " + ", ".join(f"{s:.4f}" for s in setup))
        print("calibrate() times (s): " + ", ".join(f"{c:.4f}" for c in cal)
              + f"; host speed factor {CAL_REF_S} / {min(cal):.4f} = {speed:.4f}")
        print(f"unscaled: setup_s = {statistics.median(setup):.6g} s, wall_s = {fastest:.6g} s")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g} (1)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for what in sorted(set(checked[0]["failures"])):
        print(f"failed operation: {what}")
    for q in problems:
        print(f"CHECK FAILED: {q}")
    print(json.dumps({"env": env}))
    print(json.dumps({"tables": checked[0]["tables"]}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
