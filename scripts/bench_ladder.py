#!/usr/bin/env python3
"""Time each layer of tailwalk on a fixed graph ladder; write the medians.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_ladder.py OUT.json

The graphs are ``cycle:64`` and ``cycle:128`` with tails 0-3, and
``complete:8``, ``complete:16`` and ``complete:24`` with tails 0,0,1,2,
all at eps 0.6.  For each graph, one process measures once, in
:func:`measure`, the seconds spent in:

- ``build_E``
- ``spectral_decompose`` of ``E(eps)``
- ``SigmaEvaluator`` construction
- a 256-point ``transmission_curve``
- the time iteration's basis (``InternalMatrix.iteration_basis``; null
  for a tailwalk that has none)
- one ``stationary_iterate`` call on a fresh ``InternalMatrix``
- 16 calls (4 lambdas x 4 ports) on another fresh one
- ``reduce_eigenvalue`` at every cluster of ``E0`` (after E0's own
  decomposition, which is not timed), as ``perturb`` runs it
- ``tailwalk perturb --eps 0.04,0.02,0.01`` end to end, through
  ``tailwalk.cli.main`` into a temporary directory

how many of those 17 calls ended in ``NoConvergence`` (the 200,000-step
budget runs out on ``cycle:128``; such a call is timed all the same), the
exit code of the ``perturb`` run (3, a refusal, is timed as well), the
process's peak resident set size, ``peak_rss_mb`` in MiB, and
``decompose_peak_n2``: the tracemalloc peak of one more, untimed
``spectral_decompose`` of ``E(eps)``, in units of one n x n complex array
(16 n^2 bytes; E itself is not counted), and ``build_E_retained_n2``: the
traced bytes that one more, untimed ``build_E(tg, 0)`` keeps in its
result, in the same unit.  Unlike a time, those counts repeat from run to
run, to about four digits.  Each round also times one
``acceptance.run_all()``, the ``verify`` suite, in :func:`measure_verify`,
with its process's peak RSS.

Every measurement runs in a fresh process with one BLAS thread. A round
measures each graph once, so the graphs alternate, then runs ``verify``,
and ``ROUNDS`` rounds run.  After the rounds, :func:`tier1` runs the tier-1
suite (ROADMAP.md) once, in a subprocess with one BLAS thread, in the
checkout the imported ``tailwalk`` comes from: ``tier1_s`` is its wall
time and ``tier1_passed`` its count of passed tests.  ``OUT.json`` holds
each layer's median over the rounds and the runs themselves.  It imports
the ``tailwalk`` on ``PYTHONPATH``, so running it once per checkout,
alternating, compares two versions; ``BENCH_<pr>.json`` holds such a pair
side by side.
"""

import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

GRAPHS = [
    ("cycle:64", "0,1,2,3"),
    ("cycle:128", "0,1,2,3"),
    ("complete:8", "0,0,1,2"),
    ("complete:16", "0,0,1,2"),
    ("complete:24", "0,0,1,2"),
]
EPS = 0.6
PERTURB_EPS = "0.04,0.02,0.01"
LAMBDAS = (-2.5, -0.9, 0.8, 2.4)
ROUNDS = 5
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _traced_n2(fn, n: int) -> tuple[float, float]:
    """tracemalloc's peak while ``fn()`` runs, and the bytes still held once
    it has returned, its result among them, in n x n complex arrays."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak / (16 * n * n), kept / (16 * n * n)


def measure(preset: str, tails: str) -> dict:
    """One measurement of every layer on one graph, in this process."""
    from tailwalk import attach_tails, build_E, preset_graph
    from tailwalk.cli import main as cli_main
    from tailwalk.internal_spectral import spectral_decompose
    from tailwalk.perturbation import Coupling, reduce_eigenvalue
    from tailwalk.scattering import (
        NoConvergence,
        SigmaEvaluator,
        stationary_iterate,
        transmission_curve,
    )

    tg = attach_tails(preset_graph(preset), [int(t) for t in tails.split(",")])
    build_E(attach_tails(preset_graph("cycle:4"), (0,)), EPS)  # numpy's first-call set-up
    im, build_s = _timed(lambda: build_E(tg, EPS))
    sd, decompose_s = _timed(lambda: spectral_decompose(im.E))
    peak_n2 = _traced_n2(lambda: spectral_decompose(im.E), tg.num_arcs)[0]
    kept_n2 = _traced_n2(lambda: build_E(tg, 0.0), tg.num_arcs)[1]
    _, evaluator_s = _timed(lambda: SigmaEvaluator(im, sd))
    grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    _, curve_s = _timed(lambda: transmission_curve(im, grid, 0, sd))
    fresh = im.at(EPS)
    basis_s = dim = None
    if hasattr(type(fresh), "iteration_basis"):
        ib, basis_s = _timed(lambda: fresh.iteration_basis)
        dim = None if ib.V is None else ib.V.shape[1]
    ports = np.eye(tg.num_ports, dtype=complex)
    failed = 0

    def iterate(im, lam, alpha):
        # a run that exhausts its budget costs as much as one that stops there
        nonlocal failed
        try:
            stationary_iterate(im, lam, alpha)
        except NoConvergence:
            failed += 1

    fresh = im.at(EPS)
    _, single_s = _timed(lambda: iterate(fresh, LAMBDAS[2], ports[0]))
    fresh = im.at(EPS)
    _, calls_s = _timed(lambda: [iterate(fresh, lam, a) for lam in LAMBDAS for a in ports[:4]])
    im0 = im.at(0.0)
    base = Coupling(im0, spectral_decompose(im0.E0))
    _, reduce_s = _timed(lambda: [reduce_eigenvalue(base, c.value) for c in base.sd.clusters])
    argv = ["perturb", "--preset", preset, "--tails", tails, "--eps", PERTURB_EPS]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        perturb_exit, perturb_s = _timed(lambda: cli_main([*argv, "--out", out]))
    return {
        "arcs": tg.num_arcs,
        "basis_dim": dim,
        "build_E_s": build_s,
        "spectral_decompose_s": decompose_s,
        "decompose_peak_n2": peak_n2,
        "build_E_retained_n2": kept_n2,
        "sigma_evaluator_s": evaluator_s,
        "transmission_256_s": curve_s,
        "iteration_basis_s": basis_s,
        "iterate_single_s": single_s,
        "iterate_16_s": calls_s,
        "iterate_no_convergence": failed,
        "reduce_all_s": reduce_s,
        "perturb_s": perturb_s,
        "perturb_exit": perturb_exit,
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_verify() -> dict:
    """One run of the acceptance suite, in this process."""
    from tailwalk.acceptance import run_all

    results, verify_s = _timed(run_all)
    return {"verify_s": verify_s, "failed": sum(r.status == "fail" for r in results),
            "peak_rss_mb": _peak_rss_mb()}


def tier1() -> dict:
    """One run of the tier-1 suite of the checkout the imported ``tailwalk``
    comes from, in a subprocess with one BLAS thread.  ``measure`` and
    ``measure_verify`` never call it: the suite runs both."""
    import tailwalk

    root = Path(tailwalk.__file__).resolve().parents[2]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = os.environ | ONE_THREAD | {"PYTHONPATH": path}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    proc, tier1_s = _timed(lambda: subprocess.run(command, cwd=root, env=env,
                                                  capture_output=True, text=True))
    passed = re.search(r"(\d+) passed", proc.stdout)
    return {"tier1_s": tier1_s, "tier1_passed": int(passed.group(1)) if passed else 0}


def _fresh(call: str) -> dict:
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import bench_ladder; print(json.dumps(bench_ladder.{call}))")
    proc = subprocess.run([sys.executable, "-c", code], env=os.environ | ONE_THREAD,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = {f"{p} tails {t}": [] for p, t in GRAPHS}
    verify = []
    for _ in range(ROUNDS):
        for (preset, tails), label in zip(GRAPHS, runs):
            runs[label].append(_fresh(f"measure({preset!r}, {tails!r})"))
        verify.append(_fresh("measure_verify()"))
    graphs = {}
    for label, rows in runs.items():
        graphs[label] = {k: rows[0][k] for k in ("arcs", "basis_dim", "iterate_no_convergence",
                                                  "perturb_exit")}
        for key in rows[0]:
            if key.endswith(("_s", "_mb", "_n2")):
                vals = [r[key] for r in rows]
                med = None if None in vals else statistics.median(vals)
                graphs[label][key] = {"median": med, "runs": vals}
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
           "eps": EPS, "perturb_eps": PERTURB_EPS, "rounds": ROUNDS}
    verify_rec = {"failed": [v["failed"] for v in verify]}
    for key in ("verify_s", "peak_rss_mb"):
        vals = [v[key] for v in verify]
        verify_rec[key] = {"median": statistics.median(vals), "runs": vals}
    record = {"env": env, "graphs": graphs, "verify": verify_rec, **tier1()}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
